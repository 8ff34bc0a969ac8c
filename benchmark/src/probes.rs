//! Per-layer probes of the traced run. `wafl-fs` calls the lower layers
//! internally, where the benchmark cannot put a span, so after the
//! timed window each probe times one lower layer's public functions on
//! inputs taken from the workload's end state (its free runs, its AA
//! scores, its occupancy), replayed into scratch structures.
//!
//! Each probe repeats a few times and reports the median; every
//! repetition is one `probe.<layer>.<fn>` span.

use crate::stats::{derive_seed, median, metric, ratio, Metric};
use crate::trace::Tracer;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Instant;
use wafl_bitmap::{scan, Bitmap};
use wafl_core::{topaa, Hbps, RaidAwareCache, ScoreDeltaBatch};
use wafl_fs::Aggregate;
use wafl_media::{MediaProfile, SsdFtl};
use wafl_raid::analyze_cp_write_runs;
use wafl_types::{AaId, AaScore, Vbn};

const REPS: usize = 5;
/// Cap on the blocks a bitmap replay touches, so a nearly empty
/// aggregate does not turn a probe into a second benchmark.
const REPLAY_BLOCKS: u64 = 1 << 20;
/// Pages of the scratch SSD (1 GiB of 4 KiB pages).
const SSD_PAGES: u32 = 1 << 18;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    out: Vec<Metric>,
}

impl Probes<'_> {
    /// Median wall time (ns) over `REPS` repetitions of whatever part
    /// of `rep` it puts inside [`clock`]; the rest of `rep` (restoring
    /// scratch state) is untimed.
    fn time(&mut self, span: &'static str, mut rep: impl FnMut() -> (Instant, Instant)) -> f64 {
        let mut samples = Vec::with_capacity(REPS);
        for i in 0..REPS {
            let (t0, t1) = rep();
            self.tracer.span(span, t0, t1, None, i as u64);
            samples.push((t1 - t0).as_nanos() as f64);
        }
        median(samples)
    }

    fn report(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.out.push(metric(name, unit, value));
    }
}

fn clock(work: impl FnOnce()) -> (Instant, Instant) {
    let t0 = Instant::now();
    work();
    (t0, Instant::now())
}

/// The volume whose scores the cache probes replay: the fullest one.
fn busiest_volume(agg: &Aggregate) -> usize {
    let vols = agg.volumes();
    (0..vols.len())
        .max_by_key(|&v| vols[v].size_blocks() - vols[v].free_blocks())
        .unwrap_or(0)
}

pub fn run(agg: &Aggregate, ops_per_cp: usize, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let mut p = Probes {
        tracer,
        out: Vec::new(),
    };
    bitmap(&mut p, agg);
    hbps(&mut p, agg);
    heap(&mut p, agg, ops_per_cp, seed);
    raid(&mut p, agg, ops_per_cp);
    ssd(&mut p, agg, ops_per_cp, seed);
    p.out
}

fn bitmap(p: &mut Probes, agg: &Aggregate) {
    let bm = agg.bitmap();
    let space = bm.space_len();

    // Walking the end state's free runs: the search the allocator
    // does inside every AA it drains.
    let (mut count, mut free) = (0u64, 0u64);
    let scan_ns = p.time("probe.bitmap.free_runs_in_range", || {
        clock(|| {
            (count, free) = bm
                .free_runs_in_range(Vbn(0), space)
                .fold((0, 0), |(n, sum), (_, len)| (n + 1, sum + len));
        })
    });
    p.report(
        "bitmap.free_run_mean_len",
        "blocks",
        ratio(free as f64, count as f64),
    );
    p.report(
        "bitmap.free_runs_scan_ns_per_page",
        "ns",
        ratio(scan_ns, bm.page_count() as f64),
    );

    // allocate_run + free_run of those runs on an empty scratch bitmap.
    let mut replay_blocks = 0u64;
    let runs: Vec<(Vbn, u64)> = bm
        .free_runs_in_range(Vbn(0), space)
        .take_while(|run| {
            let more = replay_blocks < REPLAY_BLOCKS;
            replay_blocks += if more { run.1 } else { 0 };
            more
        })
        .collect();
    let mut scratch = Bitmap::new(space);
    let ns = p.time("probe.bitmap.allocate_run_free_run", || {
        clock(|| {
            for &(start, len) in &runs {
                scratch.allocate_run(start, len).expect("run is free");
            }
            for &(start, len) in &runs {
                scratch.free_run(start, len).expect("run is allocated");
            }
        })
    });
    p.report(
        "bitmap.alloc_free_run_ns_per_block",
        "ns",
        ratio(ns, replay_blocks as f64),
    );

    // The batch-free path on isolated blocks spread over the space, the
    // way one CP's COW frees land: every `stride`-th block of the
    // replayed runs, a CP's worth per batch, on a full scratch bitmap.
    let blocks: Vec<Vbn> = runs
        .iter()
        .flat_map(|&(start, len)| (0..len).map(move |i| Vbn(start.get() + i)))
        .collect();
    const BATCH: usize = 8192;
    let stride = (blocks.len() / BATCH).max(1);
    let batches: Vec<Vec<Vbn>> = (0..stride.min(8))
        .map(|k| blocks.iter().skip(k).step_by(stride).copied().collect())
        .collect();
    let batch_blocks: usize = batches.iter().map(Vec::len).sum();
    scratch
        .allocate_run(Vbn(0), space)
        .expect("scratch is empty");
    let ns = p.time("probe.bitmap.free_sorted_blocks", || {
        let spans = clock(|| {
            for batch in &batches {
                scratch
                    .free_sorted_blocks(batch)
                    .expect("batch is allocated");
            }
        });
        for &vbn in batches.iter().flatten() {
            scratch.allocate(vbn).expect("block was just freed");
        }
        spans
    });
    p.report(
        "bitmap.free_sorted_blocks_ns_per_block",
        "ns",
        ratio(ns, batch_blocks as f64),
    );

    // Score scans over the busiest volume's bitmap, at its AA size.
    let vol = &agg.volumes()[busiest_volume(agg)];
    let aa_blocks = vol.topology().aa_blocks(AaId(0));
    let ns = p.time("probe.bitmap.scores_seq", || {
        clock(|| {
            black_box(scan::scores_seq(vol.bitmap(), aa_blocks));
        })
    });
    p.report("bitmap.scores_seq_us", "us", ns / 1e3);
    // Ranges one block off the AA grid, so the two edge pages of every
    // query pay their popcount.
    let aas = vol.topology().aa_count() as u64;
    let ns = p.time("probe.bitmap.free_count_range", || {
        clock(|| {
            for aa in 0..aas {
                black_box(
                    vol.bitmap()
                        .free_count_range(Vbn(aa * aa_blocks + 1), aa_blocks),
                );
            }
        })
    });
    p.report("bitmap.free_count_range_ns", "ns", ratio(ns, aas as f64));
}

fn hbps(p: &mut Probes, agg: &Aggregate) {
    let vol = &agg.volumes()[busiest_volume(agg)];
    let cache = vol
        .cache()
        .expect("every benchmark volume has its AA cache on");
    let cfg = cache.hbps().config();
    let scores = vol.topology().all_scores(vol.bitmap());
    let build = || Hbps::build(cfg, scores.iter().copied()).expect("scores fit the volume's HBPS");
    let mut h = build();
    p.report("core.hbps_memory_bytes", "bytes", h.memory_bytes() as f64);

    let ns = p.time("probe.core.hbps_replenish", || {
        clock(|| h.replenish(scores.iter().copied()).expect("scores fit"))
    });
    p.report("core.hbps_replenish_us", "us", ns / 1e3);

    // Moving every AA one bin over and back: the CP-boundary update.
    let width = cfg.bin_width();
    let moves: Vec<(AaId, AaScore, AaScore)> = scores
        .iter()
        .map(|&(aa, old)| {
            let new = match old.get() {
                s if s >= width => s - width,
                s => s + width,
            };
            (aa, old, AaScore(new))
        })
        .collect();
    let ns = p.time("probe.core.hbps_on_score_change", || {
        clock(|| {
            for &(aa, old, new) in &moves {
                h.on_score_change(aa, old, new).expect("score in range");
            }
            for &(aa, old, new) in &moves {
                h.on_score_change(aa, new, old).expect("score in range");
            }
        })
    });
    p.report(
        "core.hbps_score_change_ns",
        "ns",
        ratio(ns, 2.0 * moves.len() as f64),
    );

    // Draining the list page: what a run of AA picks costs.
    let listed = build().list_len();
    let ns = p.time("probe.core.hbps_take_best", || {
        h = build();
        clock(|| {
            while let Some(best) = h.take_best() {
                black_box(best);
            }
        })
    });
    p.report("core.hbps_take_best_ns", "ns", ratio(ns, listed as f64));

    h = build();
    let mut pages = h.to_pages();
    let ns = p.time("probe.core.hbps_to_pages", || {
        clock(|| pages = h.to_pages())
    });
    p.report("core.hbps_to_pages_us", "us", ns / 1e3);
    let ns = p.time("probe.core.hbps_from_pages", || {
        clock(|| {
            black_box(Hbps::from_pages(&pages.0, &pages.1).expect("pages just written"));
        })
    });
    p.report("core.hbps_from_pages_us", "us", ns / 1e3);
}

fn heap(p: &mut Probes, agg: &Aggregate, ops_per_cp: usize, seed: u64) {
    let topo = agg.groups()[0].topology();
    let scores: Vec<AaScore> = topo.all_scores(agg.bitmap()).iter().map(|s| s.1).collect();
    let max: Vec<u32> = (0..topo.aa_count())
        .map(|a| topo.aa_blocks(AaId(a)) as u32)
        .collect();
    let build =
        || RaidAwareCache::new_full(scores.clone(), max.clone()).expect("one max per score");
    let mut cache = build();
    p.report(
        "core.heap_memory_bytes",
        "bytes",
        cache.memory_bytes() as f64,
    );

    let takes = cache.len().min(64);
    let ns = p.time("probe.core.heap_take_best", || {
        let mut taken = Vec::with_capacity(takes);
        let spans = clock(|| {
            for _ in 0..takes {
                taken.extend(cache.take_best());
            }
        });
        for (aa, score) in taken {
            cache.insert(aa, score).expect("AA was just taken");
        }
        spans
    });
    p.report("core.heap_take_best_ns", "ns", ratio(ns, takes as f64));

    // One CP's score deltas: its allocations drained from the best AAs,
    // its COW frees scattered over the allocated blocks of all AAs.
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 3));
    let mut deltas = ScoreDeltaBatch::new();
    let mut best: Vec<usize> = (0..scores.len()).collect();
    best.sort_unstable_by_key(|&aa| std::cmp::Reverse(scores[aa]));
    let mut left = ops_per_cp as u32;
    for &aa in &best {
        let n = left.min(scores[aa].get());
        if n > 0 {
            deltas.record_allocated(AaId(aa as u32), n);
            left -= n;
        }
    }
    let mut allocated: Vec<u32> = scores.iter().zip(&max).map(|(s, m)| m - s.get()).collect();
    let mut frees = ops_per_cp.min(allocated.iter().map(|&a| a as usize).sum());
    while frees > 0 {
        let aa = rng.random_range(0..allocated.len());
        if allocated[aa] > 0 {
            allocated[aa] -= 1;
            deltas.record_freed(AaId(aa as u32), 1);
            frees -= 1;
        }
    }
    let touched = deltas.touched_aas();
    let ns = p.time("probe.core.heap_apply_batch", || {
        cache = build();
        let mut batch = deltas.clone();
        clock(|| cache.apply_batch(&mut batch))
    });
    p.report(
        "core.heap_apply_batch_ns_per_aa",
        "ns",
        ratio(ns, touched as f64),
    );

    let mut block = topaa::serialize_raid_aware(&cache);
    let ns = p.time("probe.core.topaa_serialize", || {
        clock(|| block = topaa::serialize_raid_aware(&cache))
    });
    p.report("core.topaa_serialize_us", "us", ns / 1e3);
    let ns = p.time("probe.core.topaa_deserialize", || {
        clock(|| {
            black_box(topaa::deserialize_raid_aware(&block).expect("block just sealed"));
        })
    });
    p.report("core.topaa_deserialize_us", "us", ns / 1e3);
}

fn raid(p: &mut Probes, agg: &Aggregate, ops_per_cp: usize) {
    // One CP's worth of writes laid into group 0's first free runs.
    let geometry = &agg.groups()[0].geometry;
    let mut runs = Vec::new();
    let mut left = ops_per_cp as u64;
    for (start, len) in agg
        .bitmap()
        .free_runs_in_range(geometry.base_vbn, geometry.data_blocks())
    {
        let len = len.min(left);
        runs.push((start, len));
        left -= len;
        if left == 0 {
            break;
        }
    }
    let ns = p.time("probe.raid.analyze_cp_write_runs", || {
        clock(|| {
            black_box(analyze_cp_write_runs(geometry, &runs).expect("runs lie in the group"));
        })
    });
    p.report(
        "raid.analyze_runs_ns_per_block",
        "ns",
        ratio(ns, (ops_per_cp as u64 - left) as f64),
    );
}

fn ssd(p: &mut Probes, agg: &Aggregate, ops_per_cp: usize, seed: u64) {
    // A scratch FTL at the workload's over-provisioning (the default
    // SSD's on a disk workload) and occupancy, aged by one device's
    // worth of random overwrites.
    let profile = match &agg.groups()[0].profile {
        p if p.erase_block_blocks > 0 => p.clone(),
        _ => MediaProfile::ssd(),
    };
    let mut ftl = SsdFtl::new(
        SSD_PAGES,
        profile.erase_block_blocks as u32,
        profile.over_provisioning,
    )
    .expect("valid scratch SSD");
    let used = (((1.0 - agg.free_fraction()) * SSD_PAGES as f64) as u32).clamp(1, SSD_PAGES);
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 4));
    ftl.write_batch(0..used).expect("pages in range");
    ftl.write_batch((0..SSD_PAGES).map(|_| rng.random_range(0..used)))
        .expect("pages in range");
    let pages = 4 * ops_per_cp;
    let ns = p.time("probe.media.ssd_write_batch", || {
        let batch: Vec<u32> = (0..pages).map(|_| rng.random_range(0..used)).collect();
        clock(|| {
            black_box(ftl.write_batch(batch).expect("pages in range"));
        })
    });
    p.report("media.ssd_write_ns_per_page", "ns", ratio(ns, pages as f64));
}
