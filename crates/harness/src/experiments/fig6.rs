//! Figure 6 (§4.1): latency versus achieved throughput with the AA caches
//! enabled for both VBN spaces, for the FlexVol only, for the aggregate
//! only, and for neither.
//!
//! Setup mirrors the paper: an all-SSD aggregate filled to 55 % and
//! thoroughly fragmented by random overwrites; the measured workload is
//! random overwrites of configured LUNs; free-space defragmentation is
//! disabled (this simulator has none running by default).
//!
//! Shape claims reproduced:
//! * the both-caches curve sits below/right of the others;
//! * chosen physical AAs are emptier than random picks (61 % vs 46 % in
//!   the paper, on a 45 %-free aggregate);
//! * chosen virtual AAs are emptier than random picks (78 % vs 61 %);
//! * SSD write amplification drops with the caches (1.77 → 1.46).

use crate::experiments::{load_sweep, measure_window};
use crate::latency::{compare_peak, latency_curve, LoadPoint, PeakComparison, WindowCost};
use crate::report::{curve_rows, frac, markdown_table, pct};
use crate::Scale;
use serde::{Deserialize, Serialize};
use wafl_fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, WaflResult};
use wafl_workloads::RandomOverwrite;

/// The experiment's four configurations.
pub const ARMS: [&str; 4] = [
    "both AA caches",
    "FlexVol AA cache",
    "Aggregate AA cache",
    "no AA caches",
];

/// Measured results of one arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Arm {
    /// Configuration name.
    pub name: String,
    /// Latency-vs-throughput series.
    pub curve: Vec<LoadPoint>,
    /// Measured window costs (feeds the curve).
    pub cost: WindowCost,
    /// Mean free fraction of physical AAs picked during measurement.
    pub agg_pick_free: f64,
    /// Mean free fraction of virtual AAs picked during measurement.
    pub vol_pick_free: f64,
    /// SSD write amplification over the measurement window.
    pub write_amplification: f64,
    /// WAFL code-path cost per op, µs (§4.1.2).
    pub us_per_op: f64,
    /// Fraction of CPU spent maintaining AA caches (§4.1.2's ~0.002 %).
    pub cache_cpu_fraction: f64,
}

/// Full Figure 6 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One entry per configuration, in [`ARMS`] order.
    pub arms: Vec<Arm>,
    /// Both-caches vs FlexVol-only (isolates the RAID-aware cache, §4.1.1).
    pub raid_aware_effect: PeakComparison,
    /// Both-caches vs Aggregate-only (isolates the HBPS cache, §4.1.2).
    pub raid_agnostic_effect: PeakComparison,
    /// Aggregate free fraction after aging (paper: 45 %).
    pub aggregate_free: f64,
    /// Simulated server cores (paper: 20).
    pub cores: f64,
    /// Number of simulated clients.
    pub clients: f64,
}

struct Setup {
    device_blocks: u64,
    erase_block: u64,
    vol_aa_blocks: u64,
    fill: f64,
    churn_mult: f64,
    measure_mult: f64,
    ops_per_cp: usize,
}

fn setup(scale: Scale) -> Setup {
    match scale {
        // Scaled so each RAID group still has dozens of AAs (the paper has
        // hundreds of thousands): smaller erase blocks shrink the SSD AA.
        Scale::Small => Setup {
            device_blocks: 128 * 240, // 30,720 blocks/device, 60 AAs
            erase_block: 128,
            vol_aa_blocks: 2048,
            fill: 0.55,
            churn_mult: 2.5,
            measure_mult: 0.8,
            ops_per_cp: 2048,
        },
        Scale::Paper => Setup {
            device_blocks: 512 * 800, // 409,600 blocks/device, 200 AAs
            erase_block: 512,
            vol_aa_blocks: 8192,
            fill: 0.55,
            churn_mult: 3.0,
            measure_mult: 1.0,
            ops_per_cp: 8192,
        },
    }
}

fn build(s: &Setup, raid_cache: bool, vol_cache: bool, seed: u64) -> WaflResult<Aggregate> {
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: s.device_blocks,
        profile: MediaProfile {
            erase_block_blocks: s.erase_block,
            ..MediaProfile::ssd()
        },
    };
    let agg_blocks = spec.data_blocks();
    let cfg = AggregateConfig {
        raid_aware_cache: raid_cache,
        ..AggregateConfig::single_group(spec)
    };
    let working_set = (agg_blocks as f64 * s.fill) as u64;
    // Thin-provisioned: virtual space ~2.2x the live data, so the volume
    // runs at ~45 % occupancy like the paper's FlexVols.
    let vol_blocks =
        ((working_set as f64 * 2.2) as u64).div_ceil(s.vol_aa_blocks) * s.vol_aa_blocks;
    Aggregate::new(
        cfg,
        &[(
            FlexVolConfig {
                size_blocks: vol_blocks,
                aa_cache: vol_cache,
                aa_blocks: Some(s.vol_aa_blocks),
            },
            working_set,
        )],
        seed,
    )
}

fn run_arm(scale: Scale, raid_cache: bool, vol_cache: bool) -> WaflResult<(Arm, f64)> {
    let s = setup(scale);
    let mut agg = build(&s, raid_cache, vol_cache, 11)?;
    let working_set = agg.volumes()[0].logical_blocks();
    // Age: fill to target, then fragment with random overwrites.
    aging::fill_volume(&mut agg, VolumeId(0), s.ops_per_cp)?;
    aging::random_overwrite_churn(
        &mut agg,
        VolumeId(0),
        (working_set as f64 * s.churn_mult) as u64,
        s.ops_per_cp,
        17,
    )?;
    agg.reset_media_stats();
    let aggregate_free = agg.free_fraction();

    // Measurement window: the paper's 8 KiB random overwrites.
    let mut w = RandomOverwrite::new(VolumeId(0), working_set, 23);
    let ops = (working_set as f64 * s.measure_mult) as u64;
    let (cost, cp) = measure_window(&mut agg, &mut w, ops, s.ops_per_cp, 4.0)?;
    let wa = agg.mean_write_amplification();
    let arm = Arm {
        name: String::new(),
        curve: Vec::new(),
        cost,
        agg_pick_free: cp.agg_pick_free_mean(),
        vol_pick_free: cp.vol_pick_free_mean(),
        write_amplification: wa,
        us_per_op: cost.cpu_us / cost.ops.max(1) as f64,
        cache_cpu_fraction: if cost.cpu_us > 0.0 {
            cp.cache_maintenance_us / cost.cpu_us
        } else {
            0.0
        },
    };
    Ok((arm, aggregate_free))
}

/// Run the Figure 6 experiment. The four arms are independent,
/// seconds-long simulations: each runs on its own thread, joined in arm
/// order.
pub fn run(scale: Scale) -> WaflResult<Fig6Result> {
    let cores = 20.0;
    let clients = 4.0;
    let configs = [(true, true), (false, true), (true, false), (false, false)];
    let results: Vec<WaflResult<(Arm, f64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = configs
            .iter()
            .map(|&(rc, vc)| s.spawn(move || run_arm(scale, rc, vc)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a Figure 6 arm panicked"))
            .collect()
    });
    let mut arms = Vec::new();
    let mut aggregate_free = 0.0;
    for (r, name) in results.into_iter().zip(ARMS) {
        let (mut arm, free) = r?;
        arm.name = name.to_string();
        arms.push(arm);
        aggregate_free = free;
    }
    // Shared load sweep sized to the best configuration's capacity.
    let cap = arms
        .iter()
        .map(|a| a.cost.capacity_ops_s(cores))
        .fold(0.0, f64::max);
    let loads = load_sweep(cap, 12);
    for arm in &mut arms {
        arm.curve = latency_curve(&arm.cost, cores, &loads);
    }
    let raid_aware_effect = compare_peak(&arms[0].cost, &arms[1].cost, cores);
    let raid_agnostic_effect = compare_peak(&arms[0].cost, &arms[2].cost, cores);
    Ok(Fig6Result {
        arms,
        raid_aware_effect,
        raid_agnostic_effect,
        aggregate_free,
        cores,
        clients,
    })
}

impl Fig6Result {
    /// Render the figure's series and the §4.1 summary numbers.
    pub fn to_markdown(&self) -> String {
        let mut rows = Vec::new();
        for arm in &self.arms {
            rows.extend(curve_rows(&arm.name, &arm.curve, self.clients));
        }
        let mut out = String::from("## Figure 6 — AA cache latency vs throughput\n\n");
        out += &markdown_table(
            &[
                "configuration",
                "offered ops/s/client",
                "achieved ops/s/client",
                "latency ms",
            ],
            &rows,
        );
        out += "\n### Summary (paper's in-text claims)\n\n";
        let summary = vec![
            vec![
                "aggregate free after aging".into(),
                frac(self.aggregate_free),
                "45 %".into(),
            ],
            vec![
                "picked physical AA free (cache on)".into(),
                frac(self.arms[0].agg_pick_free),
                "61 %".into(),
            ],
            vec![
                "picked physical AA free (random)".into(),
                frac(self.arms[1].agg_pick_free),
                "46 %".into(),
            ],
            vec![
                "picked virtual AA free (cache on)".into(),
                frac(self.arms[0].vol_pick_free),
                "78 %".into(),
            ],
            vec![
                "picked virtual AA free (random)".into(),
                frac(self.arms[2].vol_pick_free),
                "61 %".into(),
            ],
            vec![
                "RAID-aware cache throughput gain".into(),
                pct(self.raid_aware_effect.throughput_gain),
                "+24 %".into(),
            ],
            vec![
                "RAID-aware cache latency reduction".into(),
                pct(self.raid_aware_effect.latency_reduction),
                "18 %".into(),
            ],
            vec![
                "HBPS cache throughput gain".into(),
                pct(self.raid_agnostic_effect.throughput_gain),
                "+8.0 %".into(),
            ],
            vec![
                "HBPS cache latency reduction".into(),
                pct(self.raid_agnostic_effect.latency_reduction),
                "8.6 %".into(),
            ],
            vec![
                "AA-cache maintenance CPU".into(),
                format!("{:.4} %", self.arms[0].cache_cpu_fraction * 100.0),
                "~0.002 %".into(),
            ],
            vec![
                "write amplification (both caches)".into(),
                format!("{:.2}", self.arms[0].write_amplification),
                "1.46".into(),
            ],
            vec![
                "write amplification (no agg cache)".into(),
                format!("{:.2}", self.arms[1].write_amplification),
                "1.77".into(),
            ],
        ];
        out += &markdown_table(&["metric", "measured", "paper"], &summary);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shapes_hold() {
        let r = run(Scale::Small).unwrap();
        let [both, vol_only, agg_only, none] = [&r.arms[0], &r.arms[1], &r.arms[2], &r.arms[3]];

        // Cache-guided physical picks are emptier than random picks.
        assert!(
            both.agg_pick_free > vol_only.agg_pick_free + 0.05,
            "agg picks: cache {} vs random {}",
            both.agg_pick_free,
            vol_only.agg_pick_free
        );
        // Cache-guided virtual picks are emptier than random picks.
        assert!(
            both.vol_pick_free > agg_only.vol_pick_free + 0.05,
            "vol picks: cache {} vs random {}",
            both.vol_pick_free,
            agg_only.vol_pick_free
        );
        // Both-caches beats every other arm on capacity.
        let cap = |a: &Arm| a.cost.capacity_ops_s(r.cores);
        assert!(cap(both) > cap(vol_only));
        assert!(cap(both) > cap(none));
        // The RAID-aware cache effect is positive.
        assert!(r.raid_aware_effect.throughput_gain > 0.0);
        assert!(r.raid_aware_effect.latency_reduction > 0.0);
        // WA with the aggregate cache is no worse than without.
        assert!(both.write_amplification <= vol_only.write_amplification + 0.02);
        // Cache maintenance CPU is negligible (paper: ~0.002 %).
        assert!(both.cache_cpu_fraction < 0.01);
        // Markdown renders every arm.
        let md = r.to_markdown();
        for name in ARMS {
            assert!(md.contains(name));
        }
    }
}
