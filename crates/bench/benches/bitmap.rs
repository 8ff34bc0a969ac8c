//! Bitmap-metafile benchmarks: score computation ("consulting bitmap
//! metafiles", §3.3), the full cache-rebuild walk the TopAA metafile
//! exists to avoid (§3.4), raw popcount versus the free-count summaries,
//! and a CP's batch of frees (ns per block freed).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wafl_bench::{aged_bitmap, aged_bitmap_for_aa};
use wafl_bitmap::{scan, sort_vbns, Bitmap};
use wafl_types::{Vbn, TETRIS_STRIPES};

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
    // `summary_per_aa` from a bitmap whose summary unit is the 2 048-block
    // AA of the benchmark volumes, one counter load per AA.
    let space = 128 * 32_768u64;
    let bitmap = aged_bitmap(space, 0.55, 3);
    let with_aa = aged_bitmap_for_aa(space, 2048, 0.55, 3);
    let mut g = c.benchmark_group("bitmap/rebuild_walk");
    g.throughput(Throughput::Bytes(space / 8));
    g.bench_function("popcount", |b| {
        b.iter(|| black_box(scan::scores_popcount(&bitmap, 32_768)))
    });
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(scan::scores_seq(&bitmap, 32_768)))
    });
    g.bench_function("summary_per_aa", |b| {
        b.iter(|| black_box(scan::scores_seq(&with_aa, 2048)))
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

/// One CP's frees, 8 192 blocks of a 4 Mi-block space, in the orders a CP
/// sees: random (overwrites of random blocks), ascending, and as a 4 + 1
/// RAID group wrote them (a sequential overwrite frees what an earlier
/// one wrote: 2 048 stripes, tetris by tetris, a 64-block chain per
/// device in turn).
fn cp_free_batches(space: u64, seed: u64) -> [(&'static str, Vec<Vbn>); 3] {
    const FREES: u64 = 8192;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random: Vec<Vbn> = rand::seq::index::sample(&mut rng, space as usize, FREES as usize)
        .into_iter()
        .map(|v| Vbn(v as u64))
        .collect();
    random.shuffle(&mut rng);
    let mut ascending = random.clone();
    ascending.sort_unstable();
    let device_blocks = space / 4;
    let stripes = FREES / 4;
    let first = rng.random_range(0..device_blocks / stripes) * stripes;
    let chains = (0..stripes / TETRIS_STRIPES)
        .flat_map(|t| (0..4).map(move |d| d * device_blocks + first + t * TETRIS_STRIPES))
        .flat_map(|chain| (chain..chain + TETRIS_STRIPES).map(Vbn))
        .collect();
    [
        ("random", random),
        ("ascending", ascending),
        ("4_device_chains", chains),
    ]
}

fn cp_batch_free(c: &mut Criterion) {
    // Each batch frees into a full 4 Mi-block bitmap, after 64 MiB of
    // other traffic has pushed the bitmap out of the caches, as a CP's
    // other stages do. The bitmap is refilled untimed after each batch.
    // Two kernels per order: the sort the CP used to pay before the
    // sorted-only batch free, and `free_batch`, which takes the batch as
    // it comes. The summary unit is a page, as an aggregate's is, and
    // `unit_2048/` repeats the random order on the 2 048-block units of
    // the benchmark's `aged_overwrite` volumes.
    let space = 128 * 32_768u64;
    let mut page_units = Bitmap::new(space);
    let mut aa_units = Bitmap::for_aa_tiling(space, 2048);
    for bitmap in [&mut page_units, &mut aa_units] {
        bitmap.allocate_run(Vbn(0), space).unwrap();
    }
    let mut traffic = vec![0u64; 8 << 20];
    let mut g = c.benchmark_group("bitmap/cp_batch_free_8192");
    g.throughput(Throughput::Elements(8192));
    let batches = cp_free_batches(space, 7);
    let cases = batches
        .iter()
        .map(|(order, batch)| (false, *order, batch))
        .chain([(true, "unit_2048/random", &batches[0].1)]);
    for (by_aa, order, batch) in cases {
        let bitmap = if by_aa {
            &mut aa_units
        } else {
            &mut page_units
        };
        for sorted in [true, false] {
            let name = match sorted {
                true => format!("{order}/sort_vbns+free_sorted_blocks"),
                false => format!("{order}/free_batch"),
            };
            let mut work = batch.clone();
            let (mut spent, mut blocks) = (Duration::ZERO, 0u64);
            g.bench_function(&name, |b| {
                b.iter(|| {
                    traffic.iter_mut().for_each(|w| *w = w.wrapping_add(1));
                    work.copy_from_slice(batch);
                    let t = Instant::now();
                    if sorted {
                        sort_vbns(&mut work);
                        bitmap.free_sorted_blocks(&work).unwrap();
                    } else {
                        bitmap.free_batch(&work).unwrap();
                    }
                    spent += t.elapsed();
                    blocks += work.len() as u64;
                    for &v in &work {
                        bitmap.allocate(v).unwrap();
                    }
                })
            });
            println!(
                "bitmap/cp_batch_free_8192/{name}: {:.1} ns per block",
                spent.as_nanos() as f64 / blocks as f64
            );
        }
    }
    black_box(&traffic);
    g.finish();
}

criterion_group!(
    benches,
    cp_batch_free,
    page_score,
    first_free,
    full_walk,
    range_count,
    first_free_worst_case,
    allocate_free_cycle,
    fragmentation_scan
);
criterion_main!(benches);
