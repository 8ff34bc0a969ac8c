//! Figure 8 (§4.3): AA sizing on SSDs — HDD-sized AAs versus AAs sized to
//! a multiple of the erase block.
//!
//! The paper ages an all-SSD system to 85 % fullness with 4 KiB random
//! reads and writes, then compares a small AA (the historical HDD sizing,
//! smaller than an erase block — Figure 4 (A)) against a large AA spanning
//! several erase blocks (Figure 4 (B)). Claims: ~26 % higher peak
//! throughput, ~21 % lower latency, and write amplification roughly
//! halved.

use crate::experiments::{load_sweep, measure_window};
use crate::latency::{compare_peak, latency_curve, LoadPoint, PeakComparison, WindowCost};
use crate::report::{curve_rows, markdown_table, pct};
use crate::Scale;
use serde::{Deserialize, Serialize};
use wafl_fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{AaSizingPolicy, VolumeId, WaflResult};
use wafl_workloads::OltpMix;

/// One AA-sizing arm.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Arm {
    /// Configuration name.
    pub name: String,
    /// AA height in stripes actually used.
    pub stripes_per_aa: u64,
    /// Latency-vs-throughput series.
    pub curve: Vec<LoadPoint>,
    /// Measured window cost.
    pub cost: WindowCost,
    /// SSD write amplification over the measurement window.
    pub write_amplification: f64,
}

/// Full Figure 8 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Small-AA arm (HDD sizing).
    pub small: Arm,
    /// Large-AA arm (erase-block multiple).
    pub large: Arm,
    /// Peak comparison, large over small.
    pub effect: PeakComparison,
    /// Cores in the modelled server (paper: 16).
    pub cores: f64,
    /// Simulated clients.
    pub clients: f64,
}

fn run_arm(scale: Scale, name: &str, policy: AaSizingPolicy) -> WaflResult<Arm> {
    let erase_block = 512u64;
    let device_blocks = scale.ops(erase_block * 80, erase_block * 400);
    let ops_per_cp = scale.ops(2048, 8192) as usize;
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks,
        profile: MediaProfile::ssd(),
    };
    let agg_blocks = spec.data_blocks();
    let cfg = AggregateConfig {
        aa_policy_override: Some(policy),
        ..AggregateConfig::single_group(spec)
    };
    // Aged to 85 % fullness (paper's setup).
    let working_set = (agg_blocks as f64 * 0.85) as u64;
    let mut agg = Aggregate::new(
        cfg,
        &[(
            FlexVolConfig {
                size_blocks: agg_blocks.div_ceil(32768) * 32768 * 2,
                aa_cache: true,
                aa_blocks: None,
            },
            working_set,
        )],
        3,
    )?;
    let stripes_per_aa = agg.groups()[0].stripes_per_aa;
    aging::fill_volume(&mut agg, VolumeId(0), ops_per_cp)?;
    aging::random_overwrite_churn(&mut agg, VolumeId(0), working_set * 3 / 2, ops_per_cp, 19)?;
    agg.reset_media_stats();

    // 4 KiB random reads and writes.
    let mut w = OltpMix::new(vec![(VolumeId(0), working_set)], 0.5, 29);
    let ops = scale.ops(80_000, 600_000);
    let (cost, _cp) = measure_window(&mut agg, &mut w, ops, ops_per_cp, 4.0)?;
    Ok(Arm {
        name: name.into(),
        stripes_per_aa,
        curve: Vec::new(),
        cost,
        write_amplification: agg.mean_write_amplification(),
    })
}

/// Run the Figure 8 experiment.
pub fn run(scale: Scale) -> WaflResult<Fig8Result> {
    let cores = 16.0;
    let clients = 4.0;
    let erase_block = 512u64;
    // Historical sizing: smaller than one erase block (Figure 4 (A)).
    let mut small = run_arm(
        scale,
        "HDD-sized AA (sub-erase-block)",
        AaSizingPolicy::Stripes {
            stripes: erase_block / 2,
        },
    )?;
    // Media-aware sizing: several erase blocks (Figure 4 (B)).
    let mut large = run_arm(
        scale,
        "Large AA (4x erase block)",
        AaSizingPolicy::DeviceUnits {
            unit_blocks: erase_block,
            units: 4,
        },
    )?;
    let cap = small
        .cost
        .capacity_ops_s(cores)
        .max(large.cost.capacity_ops_s(cores));
    let loads = load_sweep(cap, 12);
    small.curve = latency_curve(&small.cost, cores, &loads);
    large.curve = latency_curve(&large.cost, cores, &loads);
    let effect = compare_peak(&large.cost, &small.cost, cores);
    Ok(Fig8Result {
        small,
        large,
        effect,
        cores,
        clients,
    })
}

impl Fig8Result {
    /// Render the figure's series and summary.
    pub fn to_markdown(&self) -> String {
        let mut rows = Vec::new();
        rows.extend(curve_rows(
            &self.small.name,
            &self.small.curve,
            self.clients,
        ));
        rows.extend(curve_rows(
            &self.large.name,
            &self.large.curve,
            self.clients,
        ));
        let mut out = String::from("## Figure 8 — AA sizing on SSD\n\n");
        out += &markdown_table(
            &[
                "configuration",
                "offered ops/s/client",
                "achieved ops/s/client",
                "latency ms",
            ],
            &rows,
        );
        out += "\n";
        out += &markdown_table(
            &["metric", "measured", "paper"],
            &[
                vec![
                    "throughput gain (large vs small AA)".into(),
                    pct(self.effect.throughput_gain),
                    "+26 %".into(),
                ],
                vec![
                    "latency reduction".into(),
                    pct(self.effect.latency_reduction),
                    "21 %".into(),
                ],
                vec![
                    "WA small AA".into(),
                    format!("{:.2}", self.small.write_amplification),
                    "~2x the large-AA value".into(),
                ],
                vec![
                    "WA large AA".into(),
                    format!("{:.2}", self.large.write_amplification),
                    "half the small-AA value".into(),
                ],
            ],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shapes_hold() {
        let r = run(Scale::Small).unwrap();
        // Large AAs are erase-block multiples; small ones are not.
        assert_eq!(r.large.stripes_per_aa % 512, 0);
        assert!(r.small.stripes_per_aa < 512);
        // Write amplification drops with erase-block-aware sizing.
        assert!(
            r.large.write_amplification < r.small.write_amplification,
            "WA large {} vs small {}",
            r.large.write_amplification,
            r.small.write_amplification
        );
        // And the performance effect follows.
        assert!(r.effect.throughput_gain > 0.0, "{:?}", r.effect);
        assert!(r.effect.latency_reduction > 0.0);
        assert!(r.to_markdown().contains("Figure 8"));
    }
}
