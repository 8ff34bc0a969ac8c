//! Turns what a run accumulated into the named metrics of
//! `BENCHMARK.json`: the end-to-end ones from the untraced run, the
//! per-layer ones (layer = crate name) from the traced run.

use crate::run::{peak_rss_mb, Bench};
use crate::stats::{median, metric, percentile, ratio, sliced_quantile, sort, Metric};

/// The window's best decile of slices, for a rate and for a latency
/// (see [`sliced_quantile`]).
const BEST_RATE: f64 = 0.9;
const BEST_LATENCY: f64 = 0.1;
/// ... and the quartile that stands in for it where a window holds only
/// a dozen slices' worth of samples (a hundred mounts).
const BEST_MOUNT: f64 = 0.25;

/// A percentile of `run_cp` wall time: each slice's percentile, read
/// off the best decile of the window's slices.
fn cp_wall_ms(bench: &Bench, p: f64) -> f64 {
    let all = &bench.win.cp_wall_ms;
    sliced_quantile(all.len(), BEST_LATENCY, |slice| {
        let mut part = all[slice].to_vec();
        sort(&mut part);
        percentile(&part, p)
    })
}

/// What a user of the file system sees. Every value is non-zero on
/// every workload: each workload ends with mount cycles of its own, and
/// `write_amplification` reads 1 where no SSD is involved.
pub fn end_to_end(bench: &Bench, setup_s: f64) -> Vec<Metric> {
    let w = &bench.win;
    let ops_per_s = sliced_quantile(w.rounds.len(), BEST_RATE, |slice| {
        let (ops, busy_ns) = w.rounds[slice]
            .iter()
            .fold((0, 0), |(o, b), r| (o + r.0, b + r.1));
        ratio(1e9 * ops as f64, busy_ns as f64)
    });
    vec![
        metric("setup_s", "s", setup_s),
        metric("ops_per_s", "ops/s", ops_per_s),
        metric("cp_wall_p50_ms", "ms", cp_wall_ms(bench, 0.5)),
        metric("cp_wall_p90_ms", "ms", cp_wall_ms(bench, 0.9)),
        metric("mount_ready_ms", "ms", {
            let ready = &bench.mounts.ready_ms;
            sliced_quantile(ready.len(), BEST_MOUNT, |slice| {
                median(ready[slice].to_vec())
            })
        }),
        metric(
            "model_us_per_op",
            "us",
            ratio(w.cp.cpu_us + w.cp.media_us, w.cp.ops as f64),
        ),
        metric("full_stripe_fraction", "ratio", w.cp.full_stripe_fraction()),
        metric(
            "write_amplification",
            "ratio",
            w.write_amplification
                .unwrap_or_else(|| bench.agg.mean_write_amplification()),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb()),
    ]
}

/// Spans around the calls into `wafl-fs` and counts from the values
/// they return; `probes` (the lower layers) are appended as they are.
pub fn per_layer(bench: &Bench, probes: Vec<Metric>) -> Vec<Metric> {
    let w = &bench.win;
    let m = &bench.mounts;
    let cp = &w.cp;
    let cps = w.cp_wall_ms.len() as f64;
    let busy_ns = (w.busy_ns[0] + w.busy_ns[1]) as f64;
    let mut cp_wall = w.cp_wall_ms.clone();
    sort(&mut cp_wall);
    let rate = |i: usize| ratio(w.block_ops[i] as f64, w.busy_ns[i] as f64);
    let phase = |us: f64| ratio(us, cp.wall.total_us);
    let ms = |us: f64| us / 1e3;
    let mut out = vec![
        metric(
            "fs.intake_ns_per_op",
            "ns",
            ratio(w.write_ns as f64, w.writes_timed as f64),
        ),
        metric(
            "fs.read_ns_per_op",
            "ns",
            ratio(w.read_ns as f64, w.reads_timed as f64),
        ),
        metric(
            "fs.cp_busy_fraction",
            "ratio",
            ratio(w.cp_ns as f64, busy_ns),
        ),
        metric(
            "fs.cp_us_per_block",
            "us",
            ratio(w.cp_ns as f64 / 1e3, cp.blocks_written as f64),
        ),
        metric("fs.cp_wall_p99_ms", "ms", percentile(&cp_wall, 0.99)),
        metric("fs.cp_wall_max_ms", "ms", percentile(&cp_wall, 1.0)),
        metric(
            "fs.cp_plan_fraction",
            "ratio",
            phase(cp.wall.plan_virtual_us + cp.wall.plan_physical_us),
        ),
        metric("fs.cp_apply_fraction", "ratio", phase(cp.wall.apply_us)),
        metric("fs.cp_bind_fraction", "ratio", phase(cp.wall.bind_us)),
        metric("fs.cp_frees_fraction", "ratio", phase(cp.wall.frees_us)),
        metric("fs.cp_costing_fraction", "ratio", phase(cp.wall.costing_us)),
        metric(
            "fs.cp_rebalance_fraction",
            "ratio",
            phase(cp.wall.rebalance_us),
        ),
        metric(
            "fs.blocks_examined_per_block",
            "ratio",
            ratio(cp.blocks_examined as f64, cp.blocks_written as f64),
        ),
        metric(
            "fs.cursor_hit_rate",
            "ratio",
            ratio(
                cp.cursor_hits as f64,
                (cp.cursor_hits + cp.cursor_misses) as f64,
            ),
        ),
        metric("fs.agg_pick_free_mean", "ratio", cp.agg_pick_free_mean()),
        metric("fs.vol_pick_free_mean", "ratio", cp.vol_pick_free_mean()),
        metric(
            "fs.replenish_pages_per_cp",
            "pages",
            ratio(cp.replenish_pages as f64, cps),
        ),
        metric(
            "fs.delayed_frees_applied_per_cp",
            "blocks",
            ratio(cp.delayed_frees_applied as f64, cps),
        ),
        metric(
            "fs.delayed_free_pages_per_cp",
            "pages",
            ratio(cp.delayed_free_pages as f64, cps),
        ),
        metric("fs.save_topaa_ms", "ms", median(m.save_ms.clone())),
        metric("fs.mount_topaa_ms", "ms", median(m.topaa_ms.clone())),
        metric("fs.mount_cold_ms", "ms", median(m.cold_ms.clone())),
        metric(
            "fs.mount_degraded_fraction",
            "ratio",
            ratio(m.degraded as f64, m.topaa_ms.len() as f64),
        ),
        metric("fs.first_cp_ms", "ms", median(m.first_cp_ms.clone())),
        metric(
            "fs.background_rebuild_ms",
            "ms",
            median(m.rebuild_ms.clone()),
        ),
        metric(
            "fs.mount_model_topaa_ms",
            "ms",
            ms(m.topaa_stats.first_cp_ready_us),
        ),
        metric(
            "fs.mount_model_cold_ms",
            "ms",
            ms(m.cold_stats.first_cp_ready_us),
        ),
        metric(
            "fs.mount_metafile_blocks_topaa",
            "blocks",
            m.topaa_stats.metafile_blocks_read as f64,
        ),
        metric(
            "fs.mount_metafile_blocks_cold",
            "blocks",
            m.cold_stats.metafile_blocks_read as f64,
        ),
        metric(
            "bitmap.metafile_pages_per_kop",
            "pages",
            ratio(1e3 * cp.metafile_pages as f64, cp.ops as f64),
        ),
    ];
    out.extend(probes);
    out.extend([
        metric(
            "bench.gen_ns_per_op",
            "ns",
            ratio(w.gen_ns as f64, w.ops as f64),
        ),
        // 1 - traced / untraced ops per busy second, from the
        // alternating blocks of this one run.
        metric(
            "bench.trace_overhead_fraction",
            "ratio",
            1.0 - ratio(rate(1), rate(0)),
        ),
        metric(
            "bench.failed_op_fraction",
            "ratio",
            ratio(w.failed as f64, w.attempted as f64),
        ),
    ]);
    out
}
