//! Reusable crash/corruption torture rounds.
//!
//! One round is the recovery loop `docs/recovery.md` describes: drive
//! client traffic from a [`Workload`](crate::Workload), tear the CP at
//! the plan's crash site, damage the persisted TopAA image, remount in
//! degraded mode, and audit (repairing if the audit is dirty). The plan
//! comes from [`FaultPlan::random`], so a round is reproducible from its
//! seed and the aggregate's shape alone.
//!
//! The harness uses this to summarize recovery behavior over many seeds;
//! `crates/fs/tests/crash_consistency.rs` carries the assertion-heavy
//! twin of this loop.

use crate::{Op, Workload};
use serde::{Deserialize, Serialize};
use wafl_faults::{CrashSite, FaultPlan, FaultSession, PlanShape};
use wafl_fs::{iron, mount, Aggregate, CpOutcome, HealthState};
use wafl_types::{RetryPolicy, WaflResult};

/// What one torture round did and how recovery went.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TortureRound {
    /// The seed the round's fault plan was generated from.
    pub seed: u64,
    /// Where the CP was cut short, if the plan scheduled a crash.
    pub crashed: Option<String>,
    /// Structures the remount degraded to a cold bitmap scan.
    pub degraded_structures: usize,
    /// Transient read failures absorbed by retries during the remount.
    pub transient_retries: u64,
    /// True when the post-remount audit found nothing to fix.
    pub clean_on_arrival: bool,
    /// Repairs `iron::repair` performed (zero when clean on arrival).
    pub repairs: u64,
}

/// Run one seeded torture round against `agg`.
///
/// Returns an error only when the machinery itself fails (e.g. space
/// exhaustion during traffic); fault recovery outcomes — degradations,
/// repairs — are data in the returned [`TortureRound`]. After a round
/// the aggregate is remounted, audited clean or repaired, and ready for
/// more traffic.
pub fn torture_round(
    agg: &mut Aggregate,
    workload: &mut dyn Workload,
    ops: u64,
    seed: u64,
) -> WaflResult<TortureRound> {
    let shape = PlanShape {
        groups: agg.groups().len(),
        volumes: agg.volumes().len(),
        max_progress: ops.max(1),
    };
    let plan = FaultPlan::random(seed, shape);

    for _ in 0..ops {
        match workload.next_op() {
            Op::Write { vol, logical } => agg.client_overwrite(vol, logical)?,
            Op::Read { vol, logical } => {
                let _ = agg.client_read(vol, logical); // unmapped reads are fine
            }
            Op::Delete { vol, logical } => {
                let _ = agg.client_delete(vol, logical);
            }
        }
    }

    // The persisted image a crash leaves behind is the previous CP's;
    // only a CP that reaches its TopAA-persist step refreshes it.
    let mut image = mount::save_topaa(agg);
    let crashed = match agg.run_cp_with_faults(plan.crash)? {
        CpOutcome::Completed(_) => {
            image = mount::save_topaa(agg);
            None
        }
        CpOutcome::Crashed(site) => {
            if site == CrashSite::AfterTopAaPersist {
                image = mount::save_topaa(agg);
            }
            Some(format!("{site:?}"))
        }
    };

    mount::crash(agg);
    mount::apply_scribbles(&mut image, &plan);
    let mut session = FaultSession::new(&plan);
    let stats = mount::mount_auto_with(agg, &image, &mut session, RetryPolicy::default());

    let report = iron::check(agg)?;
    let clean_on_arrival = report.is_clean();
    let repairs = if clean_on_arrival {
        0
    } else {
        iron::repair(agg)?.repairs
    };

    Ok(TortureRound {
        seed,
        crashed,
        degraded_structures: stats.degraded.len(),
        transient_retries: stats.transient_retries,
        clean_on_arrival,
        repairs,
    })
}

/// What one seeded *runtime* scrub torture round observed.
///
/// Unlike [`TortureRound`], which tears down and remounts, this round
/// keeps the aggregate online while in-memory corruption lands mid-run
/// and the CP-budgeted scrubber detects and repairs it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScrubTortureRound {
    /// The seed the round's runtime fault plan was generated from.
    pub seed: u64,
    /// Runtime scribbles the plan scheduled.
    pub scribbles_scheduled: u64,
    /// Faults the scrubber detected during the round.
    pub faults_detected: u64,
    /// Repairs that completed and re-verified clean.
    pub repairs_succeeded: u64,
    /// Where a CP was torn mid-round, if the plan scheduled a crash.
    pub crashed: Option<String>,
    /// Structures the post-crash remount degraded (0 when no crash).
    pub remount_degraded: usize,
    /// Health state after the drain phase, as displayed.
    pub final_health: String,
}

/// Run one seeded runtime-scrub torture round against `agg`.
///
/// Generates a [`FaultPlan::random_runtime`] schedule, drives `cps`
/// consistency points of `ops_per_cp` client operations each with the
/// fault session attached (so scribbles land at their scheduled CPs and
/// scrub reads can fail), then drains with empty CPs until the health
/// machine settles. If the plan tears a CP, the aggregate is remounted
/// with [`mount::mount_auto`] from the last persisted TopAA image and
/// the round continues — crash-mid-repair must recover too.
///
/// Debug-build note: summary-counter scribbles trip the bitmap's debug
/// per-CP summary audit (`Bitmap::take_dirty_stats` asserts
/// `Bitmap::summary_divergences` clean) when a *non-empty* CP flushes
/// before the repair lands, so callers driving `ops_per_cp > 0` should
/// run in release mode (`scripts/ci.sh --scrub-torture` does).
pub fn scrub_torture_round(
    agg: &mut Aggregate,
    workload: &mut dyn Workload,
    cps: u64,
    ops_per_cp: u64,
    seed: u64,
) -> WaflResult<ScrubTortureRound> {
    let shape = PlanShape {
        groups: agg.groups().len(),
        volumes: agg.volumes().len(),
        max_progress: ops_per_cp.max(1),
    };
    let plan = FaultPlan::random_runtime(seed, shape, cps);
    let mut session = FaultSession::new(&plan);
    let crash_at = plan.crash.map(|_| cps / 2);

    let detected_base = agg
        .obs()
        .counter_value("scrub.faults_detected")
        .unwrap_or(0);
    let repaired_base = agg
        .obs()
        .counter_value("scrub.repairs_succeeded")
        .unwrap_or(0);

    let mut image = mount::save_topaa(agg);
    let mut crashed = None;
    let mut remount_degraded = 0usize;

    for cp in 0..cps {
        for _ in 0..ops_per_cp {
            match workload.next_op() {
                Op::Write { vol, logical } => agg.client_overwrite(vol, logical)?,
                Op::Read { vol, logical } => {
                    let _ = agg.client_read(vol, logical);
                }
                Op::Delete { vol, logical } => {
                    let _ = agg.client_delete(vol, logical);
                }
            }
        }
        let crash = if Some(cp) == crash_at {
            plan.crash
        } else {
            None
        };
        match agg.run_cp_with_session(crash, Some(&mut session))? {
            CpOutcome::Completed(_) => image = mount::save_topaa(agg),
            CpOutcome::Crashed(site) => {
                if site == CrashSite::AfterTopAaPersist {
                    image = mount::save_topaa(agg);
                }
                crashed = Some(format!("{site:?}"));
                mount::crash(agg);
                let stats = mount::mount_auto(agg, &image);
                remount_degraded = stats.degraded.len();
            }
        }
    }

    // Drain: empty CPs (debug-safe) until pending repairs finish and the
    // hysteresis window closes, bounded so a wedged state still returns.
    let mut drain = 0u64;
    while agg.health() != HealthState::Healthy && drain < cps + 64 {
        agg.run_cp_with_session(None, Some(&mut session))?;
        drain += 1;
    }

    let obs = agg.obs();
    Ok(ScrubTortureRound {
        seed,
        scribbles_scheduled: plan.runtime_scribbles.len() as u64,
        faults_detected: obs
            .counter_value("scrub.faults_detected")
            .unwrap_or(0)
            .saturating_sub(detected_base),
        repairs_succeeded: obs
            .counter_value("scrub.repairs_succeeded")
            .unwrap_or(0)
            .saturating_sub(repaired_base),
        crashed,
        remount_degraded,
        final_health: agg.health().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomOverwrite;
    use wafl_fs::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_types::VolumeId;

    // `ops_per_cp = 0` keeps every CP empty, which sidesteps the
    // debug-build summary assertion while scribbles are still latent;
    // the release-mode torture suite drives real traffic.
    #[test]
    fn scrub_round_with_empty_cps_settles_healthy() {
        let mut agg = Aggregate::new(
            AggregateConfig {
                scrub_pages_per_cp: 8,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: wafl_media::MediaProfile::ssd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1024,
            )],
            7,
        )
        .unwrap();
        let mut w = RandomOverwrite::new(VolumeId(0), 1024, 3);
        for seed in 0..8u64 {
            let round = scrub_torture_round(&mut agg, &mut w, 12, 0, seed).unwrap();
            assert_eq!(round.final_health, "healthy", "seed {seed}: {round:?}");
            assert!(round.scribbles_scheduled >= 1, "seed {seed}");
        }
    }
}
