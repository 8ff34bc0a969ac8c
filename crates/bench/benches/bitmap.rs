//! Bitmap-metafile benchmarks: score computation ("consulting bitmap
//! metafiles", §3.3) and the full cache-rebuild walk the TopAA metafile
//! exists to avoid (§3.4), raw popcount versus the free-count summaries.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use wafl_bench::aged_bitmap;
use wafl_bitmap::scan;
use wafl_types::Vbn;

fn page_score(c: &mut Criterion) {
    let bitmap = aged_bitmap(64 * 32_768, 0.55, 1);
    c.bench_function("bitmap/aa_score_one_page", |b| {
        b.iter(|| black_box(bitmap.free_count_range(Vbn(7 * 32_768), 32_768)))
    });
}

fn first_free(c: &mut Criterion) {
    let bitmap = aged_bitmap(64 * 32_768, 0.95, 2);
    c.bench_function("bitmap/first_free_95pct_full", |b| {
        b.iter(|| black_box(bitmap.first_free_from(Vbn(0))))
    });
}

fn full_walk(c: &mut Criterion) {
    // The mount-time rebuild walk over a 16 GiB (4 Mi-block) space.
    // `popcount` is the pre-summary implementation (raw word walk);
    // `sequential` answers from the per-page free-count summary, and
    // `summary_per_aa` adds the per-AA counters volumes enable, turning
    // the whole rebuild into a counter copy.
    let space = 128 * 32_768u64;
    let bitmap = aged_bitmap(space, 0.55, 3);
    let mut with_aa = aged_bitmap(space, 0.55, 3);
    with_aa.enable_aa_summary(32_768).unwrap();
    let mut g = c.benchmark_group("bitmap/rebuild_walk");
    g.throughput(Throughput::Bytes(space / 8));
    g.bench_function("popcount", |b| {
        b.iter(|| black_box(scan::scores_popcount(&bitmap, 32_768)))
    });
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(scan::scores_seq(&bitmap, 32_768)))
    });
    g.bench_function("summary_per_aa", |b| {
        b.iter(|| black_box(scan::scores_seq(&with_aa, 32_768)))
    });
    g.finish();
}

fn range_count(c: &mut Criterion) {
    // A 16-page range count: summary-accelerated (two partial-edge
    // popcounts plus 15 counter reads) versus the raw popcount walk.
    let bitmap = aged_bitmap(64 * 32_768, 0.55, 6);
    let start = Vbn(3 * 32_768 + 1000);
    let len = 16 * 32_768u64;
    let mut g = c.benchmark_group("bitmap/range_count_16_pages");
    g.throughput(Throughput::Bytes(len / 8));
    g.bench_function("popcount", |b| {
        b.iter(|| black_box(bitmap.free_count_range_popcount(start, len)))
    });
    g.bench_function("summary", |b| {
        b.iter(|| black_box(bitmap.free_count_range(start, len)))
    });
    g.finish();
}

fn first_free_worst_case(c: &mut Criterion) {
    // Every page but the last is full: the skip-scan reads 63 counters
    // and walks one page where the pre-summary code walked all 64.
    let space = 64 * 32_768u64;
    let mut bitmap = wafl_bitmap::Bitmap::new(space);
    for v in 0..space - 1 {
        bitmap.allocate(Vbn(v)).unwrap();
    }
    c.bench_function("bitmap/first_free_last_page", |b| {
        b.iter(|| black_box(bitmap.first_free_from(Vbn(0))))
    });
}

fn allocate_free_cycle(c: &mut Criterion) {
    let mut bitmap = aged_bitmap(64 * 32_768, 0.5, 4);
    let probe = bitmap.first_free_from(Vbn(0)).unwrap();
    c.bench_function("bitmap/allocate_free_cycle", |b| {
        b.iter(|| {
            bitmap.allocate(probe).unwrap();
            bitmap.free(probe).unwrap();
        })
    });
}

fn fragmentation_scan(c: &mut Criterion) {
    let bitmap = aged_bitmap(16 * 32_768, 0.55, 5);
    c.bench_function("bitmap/fragmentation_one_aa", |b| {
        b.iter(|| black_box(scan::fragmentation_in_range(&bitmap, Vbn(0), 32_768)))
    });
}

criterion_group!(
    benches,
    page_score,
    first_free,
    full_walk,
    range_count,
    first_free_worst_case,
    allocate_free_cycle,
    fragmentation_scan
);
criterion_main!(benches);
