//! Records the free-count-summary performance baseline: whole-bitmap
//! score rebuild (summary versus the retained popcount walk) at 1 Mi
//! blocks, summary-accelerated range counts, and the CP overwrite
//! workload — written as `BENCH_bitmap.json`, `BENCH_cp.json`,
//! `BENCH_alloc.json`, and `BENCH_obs.json` for the repo record (see
//! `docs/perf.md`). `BENCH_obs.json` also records the flight recorder's
//! tracing-on versus tracing-off throughput (the overhead target is
//! < 2 %) and the traced run's per-CP time series.
//!
//! Usage: `cargo run --release -p wafl-harness --example bench_baseline
//!         [--out-dir <dir>]` (default: current directory). Run via
//! `scripts/bench_baseline.sh` so the JSONs land at the repo root.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use wafl_bitmap::{scan, Bitmap};
use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{Vbn, VolumeId, BITS_PER_BITMAP_BLOCK};

/// 1 Mi blocks = 32 bitmap pages = a 4 GiB space at 4 KiB blocks.
const SPACE: u64 = 32 * BITS_PER_BITMAP_BLOCK;
const FILL: f64 = 0.55;
const AA_BLOCKS: u64 = BITS_PER_BITMAP_BLOCK;

fn aged(space: u64, fill: f64, seed: u64) -> Bitmap {
    let mut b = Bitmap::new(space);
    let mut rng = StdRng::seed_from_u64(seed);
    let target = (space as f64 * fill) as u64;
    let mut allocated = 0;
    while allocated < target {
        if b.allocate(Vbn(rng.random_range(0..space))).is_ok() {
            allocated += 1;
        }
    }
    b
}

/// Mean nanoseconds per call over `iters` timed iterations (plus a short
/// untimed warm-up).
fn time_ns<R>(iters: u64, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..iters.div_ceil(10).min(50) {
        black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

#[derive(Serialize)]
struct BitmapBaseline {
    space_blocks: u64,
    fill_fraction: f64,
    aa_blocks: u64,
    /// Pre-summary implementation: raw popcount walk over every word.
    rebuild_popcount_ns: f64,
    /// Whole-page counts answered from the per-page summary.
    rebuild_page_summary_ns: f64,
    /// Per-AA counters (volume bitmaps): a counter copy.
    rebuild_aa_summary_ns: f64,
    speedup_page_summary: f64,
    speedup_aa_summary: f64,
    /// 16-page range count, popcount versus summary.
    range_count_16_pages_popcount_ns: f64,
    range_count_16_pages_summary_ns: f64,
    /// `first_free_from` when only the last page has a free bit.
    first_free_last_page_ns: f64,
}

fn bitmap_baseline() -> BitmapBaseline {
    let plain = aged(SPACE, FILL, 42);
    let mut with_aa = aged(SPACE, FILL, 42);
    with_aa.enable_aa_summary(AA_BLOCKS).unwrap();

    let rebuild_popcount_ns = time_ns(2_000, || scan::scores_popcount(&plain, AA_BLOCKS));
    let rebuild_page_summary_ns = time_ns(200_000, || scan::scores_seq(&plain, AA_BLOCKS));
    let rebuild_aa_summary_ns = time_ns(200_000, || scan::scores_seq(&with_aa, AA_BLOCKS));

    let start = Vbn(3 * BITS_PER_BITMAP_BLOCK + 1000);
    let len = 16 * BITS_PER_BITMAP_BLOCK;
    let range_count_16_pages_popcount_ns =
        time_ns(10_000, || plain.free_count_range_popcount(start, len));
    let range_count_16_pages_summary_ns = time_ns(200_000, || plain.free_count_range(start, len));

    let mut nearly_full = Bitmap::new(SPACE);
    for v in 0..SPACE - 1 {
        nearly_full.allocate(Vbn(v)).unwrap();
    }
    let first_free_last_page_ns = time_ns(200_000, || nearly_full.first_free_from(Vbn(0)));

    BitmapBaseline {
        space_blocks: SPACE,
        fill_fraction: FILL,
        aa_blocks: AA_BLOCKS,
        rebuild_popcount_ns,
        rebuild_page_summary_ns,
        rebuild_aa_summary_ns,
        speedup_page_summary: rebuild_popcount_ns / rebuild_page_summary_ns,
        speedup_aa_summary: rebuild_popcount_ns / rebuild_aa_summary_ns,
        range_count_16_pages_popcount_ns,
        range_count_16_pages_summary_ns,
        first_free_last_page_ns,
    }
}

#[derive(Serialize)]
struct AllocSeries {
    ops_per_second: f64,
    /// Candidate blocks the allocator examined across the whole series.
    blocks_examined: u64,
    cursor_hits: u64,
    cursor_misses: u64,
    /// Fraction of volume drains that resumed from the per-AA cursor.
    cursor_hit_rate: f64,
}

#[derive(Serialize)]
struct AllocBaseline {
    /// Aligned run length for the bulk-vs-per-bit mutator comparison.
    run_len: u64,
    /// One allocate_run + free_run cycle of `run_len` blocks (summary
    /// enabled), mean ns.
    bulk_cycle_ns: f64,
    /// The same cycle spelled as `run_len` allocate() + free() calls.
    per_bit_cycle_ns: f64,
    /// per_bit_cycle_ns / bulk_cycle_ns — the acceptance gate is >= 5x.
    bulk_speedup: f64,
    /// The CP overwrite workload, cache-guided vs sweep, with the
    /// allocator counters that explain the difference.
    cache_on: AllocSeries,
    cache_off: AllocSeries,
}

/// Pulls `"name":<integer>` out of the registry's snapshot JSON. The
/// serde_json shim only serializes, so this is a plain string scan over
/// the compact `{"counters":{"a":1,...}}` layout the registry emits.
fn counter_of(snapshot: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let Some(at) = snapshot.find(&key) else {
        return 0;
    };
    snapshot[at + key.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

fn alloc_series(cp: &CpSeries, snapshot: &str) -> AllocSeries {
    let hits = counter_of(snapshot, "allocator.cursor_hits");
    let misses = counter_of(snapshot, "allocator.cursor_misses");
    AllocSeries {
        ops_per_second: cp.ops_per_second,
        blocks_examined: counter_of(snapshot, "allocator.blocks_examined"),
        cursor_hits: hits,
        cursor_misses: misses,
        cursor_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}

/// Bulk mutators versus the per-bit loop on a 64-block aligned run of a
/// summary-enabled bitmap. Each sample is a full allocate+free cycle so
/// the bitmap returns to its starting state between iterations.
fn alloc_run_bench() -> (f64, f64, u64) {
    const RUN: u64 = 64;
    let mut bulk = Bitmap::new(4 * BITS_PER_BITMAP_BLOCK);
    bulk.enable_aa_summary(AA_BLOCKS).unwrap();
    let start = Vbn(BITS_PER_BITMAP_BLOCK + 512); // word- and AA-interior aligned
    let bulk_cycle_ns = time_ns(400_000, || {
        bulk.allocate_run(start, RUN).unwrap();
        bulk.free_run(start, RUN).unwrap();
    });
    let mut per_bit = Bitmap::new(4 * BITS_PER_BITMAP_BLOCK);
    per_bit.enable_aa_summary(AA_BLOCKS).unwrap();
    let per_bit_cycle_ns = time_ns(40_000, || {
        for v in start.get()..start.get() + RUN {
            per_bit.allocate(Vbn(v)).unwrap();
        }
        for v in start.get()..start.get() + RUN {
            per_bit.free(Vbn(v)).unwrap();
        }
    });
    (bulk_cycle_ns, per_bit_cycle_ns, RUN)
}

#[derive(Serialize)]
struct CpSeries {
    rounds: u64,
    ops_per_round: u64,
    ops_per_second: f64,
    mean_round_ms: f64,
    mean_cp_flush_ms: f64,
}

#[derive(Serialize)]
struct CpBaseline {
    caches_on: CpSeries,
    caches_off: CpSeries,
}

/// The `cp_engine` bench workload (random overwrites + CP flush),
/// re-measured here so CP latency is part of the recorded baseline.
/// Also returns the aggregate's observability snapshot so the allocator
/// pipeline's counters land in the baseline record (`BENCH_obs.json`).
/// `trace_events > 0` switches on the flight recorder with that ring
/// capacity; the third return is then the traced run's per-CP series
/// JSON.
fn cp_series(caches: bool, trace_events: usize) -> (CpSeries, String, Option<String>) {
    const ROUNDS: u64 = 24;
    const OPS: u64 = 8192;
    let mut agg = Aggregate::new(
        AggregateConfig {
            raid_aware_cache: caches,
            trace_events,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 64 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 16 * BITS_PER_BITMAP_BLOCK,
                aa_cache: caches,
                aa_blocks: None,
            },
            200_000,
        )],
        1,
    )
    .unwrap();
    wafl_fs::aging::fill_volume(&mut agg, VolumeId(0), 8192).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let round = |agg: &mut Aggregate, rng: &mut StdRng| {
        for _ in 0..OPS {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..200_000))
                .unwrap();
        }
        let cp = Instant::now();
        agg.run_cp().unwrap();
        cp.elapsed()
    };
    // Warm up (primes caches and the delayed-free log).
    for _ in 0..4 {
        round(&mut agg, &mut rng);
    }
    let start = Instant::now();
    let mut cp_total = 0.0f64;
    for _ in 0..ROUNDS {
        cp_total += round(&mut agg, &mut rng).as_secs_f64();
    }
    let total = start.elapsed().as_secs_f64();
    let series = CpSeries {
        rounds: ROUNDS,
        ops_per_round: OPS,
        ops_per_second: (ROUNDS * OPS) as f64 / total,
        mean_round_ms: total * 1e3 / ROUNDS as f64,
        mean_cp_flush_ms: cp_total * 1e3 / ROUNDS as f64,
    };
    let per_cp = agg.cp_series().map(|s| s.to_json());
    (series, agg.obs().snapshot_json(), per_cp)
}

/// The flight recorder's cost on the CP workload: the same caches-on
/// series with tracing off and on, best-of-5 trials
/// per arm with the arms interleaved (off, on, off, on, ...) so
/// host-frequency drift hits both equally — run-to-run variance on a
/// loaded host easily exceeds the effect being measured, which is one
/// relaxed `fetch_add` plus an uncontended slot write per event.
#[derive(Serialize)]
struct TraceOverhead {
    trace_capacity: usize,
    trials_per_arm: u32,
    ops_per_second_off: f64,
    ops_per_second_on: f64,
    /// `1 - on/off`; the acceptance target is < 0.02.
    overhead_fraction: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_dir = args
        .iter()
        .position(|a| a == "--out-dir")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| ".".into());

    eprintln!("measuring bitmap score-rebuild baseline ({SPACE} blocks)...");
    let bitmap = bitmap_baseline();
    eprintln!(
        "  rebuild: popcount {:.0} ns, page summary {:.0} ns ({:.0}x), \
         per-AA summary {:.0} ns ({:.0}x)",
        bitmap.rebuild_popcount_ns,
        bitmap.rebuild_page_summary_ns,
        bitmap.speedup_page_summary,
        bitmap.rebuild_aa_summary_ns,
        bitmap.speedup_aa_summary,
    );

    eprintln!("measuring bulk-vs-per-bit run mutators...");
    let (bulk_cycle_ns, per_bit_cycle_ns, run_len) = alloc_run_bench();
    eprintln!(
        "  {run_len}-block cycle: bulk {bulk_cycle_ns:.0} ns, per-bit \
         {per_bit_cycle_ns:.0} ns ({:.1}x)",
        per_bit_cycle_ns / bulk_cycle_ns
    );

    eprintln!("measuring CP overwrite workload...");
    let (caches_on, obs_snapshot, _) = cp_series(true, 0);
    let (caches_off, obs_snapshot_off, _) = cp_series(false, 0);
    let alloc = AllocBaseline {
        run_len,
        bulk_cycle_ns,
        per_bit_cycle_ns,
        bulk_speedup: per_bit_cycle_ns / bulk_cycle_ns,
        cache_on: alloc_series(&caches_on, &obs_snapshot),
        cache_off: alloc_series(&caches_off, &obs_snapshot_off),
    };
    let cp = CpBaseline {
        caches_on,
        caches_off,
    };
    eprintln!(
        "  caches on: {:.0} ops/s, mean CP flush {:.2} ms",
        cp.caches_on.ops_per_second, cp.caches_on.mean_cp_flush_ms
    );
    eprintln!(
        "  caches off: {:.0} ops/s; cursor hit rate (on) {:.2}",
        cp.caches_off.ops_per_second, alloc.cache_on.cursor_hit_rate
    );

    eprintln!("measuring flight-recorder overhead (tracing off/on, best of 5)...");
    const TRACE_CAPACITY: usize = 65_536;
    const TRIALS: u32 = 5;
    let mut off_best = 0.0f64;
    let mut on_best = 0.0f64;
    let mut per_cp = None;
    for _ in 0..TRIALS {
        off_best = off_best.max(cp_series(true, 0).0.ops_per_second);
        let (s, _, p) = cp_series(true, TRACE_CAPACITY);
        if s.ops_per_second > on_best {
            on_best = s.ops_per_second;
            per_cp = p;
        }
    }
    let trace = TraceOverhead {
        trace_capacity: TRACE_CAPACITY,
        trials_per_arm: TRIALS,
        ops_per_second_off: off_best,
        ops_per_second_on: on_best,
        overhead_fraction: 1.0 - on_best / off_best,
    };
    eprintln!(
        "  tracing off {:.0} ops/s, on {:.0} ops/s ({:+.2}% overhead)",
        trace.ops_per_second_off,
        trace.ops_per_second_on,
        trace.overhead_fraction * 100.0,
    );
    // Hand-assembled wrapper: the serde shim would re-escape the
    // registry snapshot and the per-CP series, which are already JSON.
    let obs_record = format!(
        "{{\n\"trace\": {},\n\"per_cp_series\": {},\n\"registry\": {}\n}}\n",
        serde_json::to_string_pretty(&trace).expect("serialize"),
        per_cp.expect("the traced arm samples the per-CP series"),
        obs_snapshot,
    );

    for (name, json) in [
        ("BENCH_bitmap.json", serde_json::to_string_pretty(&bitmap)),
        ("BENCH_cp.json", serde_json::to_string_pretty(&cp)),
        ("BENCH_alloc.json", serde_json::to_string_pretty(&alloc)),
        // Flight-recorder overhead + the traced run's per-CP series +
        // the caches-on run's registry snapshot (already JSON).
        ("BENCH_obs.json", Ok(obs_record)),
    ] {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, json.expect("serialize")).expect("write baseline json");
        println!("wrote {path}");
    }
}
