//! Runtime-scrub torture: seeded rounds of mid-run in-memory corruption
//! against an online, traffic-serving aggregate.
//!
//! Each round (driven by `wafl_workloads::torture::scrub_torture_round`)
//! generates a [`FaultPlan::random_runtime`] schedule from its seed —
//! counter scribbles, transient scrub-read errors, sometimes a torn CP —
//! and asserts that every fault is detected and repaired: health returns
//! to Healthy, every bitmap summary converges back to popcount ground
//! truth, and `iron::check` is clean (after the repair pass a torn CP's
//! leaks need).
//!
//! **Release-only**: a debug build's bitmap summary assertion fires on
//! the first non-empty CP after a scribble lands — deliberately, and
//! before the scrubber's budgeted scan can reach it. The full run is
//! `scripts/ci.sh --scrub-torture`, i.e.
//! `cargo test --release -p wafl-fs --test scrub_torture -- --ignored`.
//! Any failure reproduces from its printed seed alone. The quick
//! two-scribble `scrub_smoke` below is release-only for the same reason.
//! The HBPS arm touches no bitmap summary, so it runs in every build.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_faults::{FaultPlan, FaultSession, RuntimeScribbleFault, RuntimeTarget};
use wafl_fs::{aging, iron, Aggregate, AggregateConfig, FlexVolConfig, HealthState, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};
use wafl_workloads::torture::scrub_torture_round;
use wafl_workloads::OltpMix;

const VOLS: usize = 2;
const VOL_BLOCKS: u64 = 4 * 32768;
const WRITTEN: u64 = 4096;

/// 28 verification units at 16 per CP: a full scrub cycle is 2 CPs, so
/// detection always outruns the 2-step healthy hysteresis.
const SCRUB_BUDGET: u64 = 16;

/// Two groups, two cache-guided volumes, aged enough that heap and HBPS
/// caches carry real scores for the score-scribble fault to corrupt.
fn scrub_agg() -> Aggregate {
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: 16 * 4096,
        profile: MediaProfile::hdd(),
    };
    let mut cfg = AggregateConfig::single_group(spec.clone());
    cfg.raid_groups.push(spec);
    cfg.scrub_pages_per_cp = SCRUB_BUDGET;
    let vol_cfgs: Vec<_> = (0..VOLS)
        .map(|_| {
            (
                FlexVolConfig {
                    size_blocks: VOL_BLOCKS,
                    aa_cache: true,
                    aa_blocks: None,
                },
                30_000,
            )
        })
        .collect();
    let mut agg = Aggregate::new(cfg, &vol_cfgs, 3).unwrap();
    for v in 0..VOLS {
        aging::fill_volume(&mut agg, VolumeId(v as u32), WRITTEN as usize).unwrap();
    }
    agg
}

fn torture_one(seed: u64) {
    let mut agg = scrub_agg();
    let luns: Vec<_> = (0..VOLS).map(|v| (VolumeId(v as u32), WRITTEN)).collect();
    let mut workload = OltpMix::new(luns, 0.3, seed);

    let round = scrub_torture_round(&mut agg, &mut workload, 16, 512, seed)
        .unwrap_or_else(|e| panic!("seed {seed}: round machinery failed: {e}"));

    // Invariant 1: in an uninterrupted round every scheduled scribble
    // corrupts live state, so the scrubber must have detected faults.
    // (A torn CP can legitimately heal corruption by rebuilding from
    // the raw bits before the scan reaches it.)
    if round.crashed.is_none() {
        assert!(
            round.faults_detected >= 1,
            "seed {seed}: {} scribbles landed but none detected: {round:?}",
            round.scribbles_scheduled
        );
    }

    // Settle: one more full scrub cycle catches anything still latent
    // (a scribble can land inside the round's final hysteresis window),
    // then bounded draining lets its repair ticket complete.
    for _ in 0..3 {
        agg.run_cp().unwrap();
    }
    let mut extra = 0;
    while agg.health() != HealthState::Healthy {
        assert!(
            extra < 64,
            "seed {seed}: health wedged at {:?}",
            agg.scrub_status()
        );
        agg.run_cp().unwrap();
        extra += 1;
    }

    // Invariant 2: every ticket settled, summaries back to truth, and
    // every derived structure clean under its own audit.
    let status = agg.scrub_status();
    assert_eq!(status.pending_repairs, 0, "seed {seed}: {status:?}");
    assert_eq!(status.quarantined_structures, 0, "seed {seed}: {status:?}");
    assert_eq!(
        agg.bitmap().summary_divergences(),
        0,
        "seed {seed}: aggregate summaries diverge after recovery"
    );
    for (v, vol) in agg.volumes().iter().enumerate() {
        assert_eq!(
            vol.bitmap().summary_divergences(),
            0,
            "seed {seed}: volume {v} summaries diverge after recovery"
        );
    }
    // A torn CP also leaves blocks allocated that nothing references,
    // which only an Iron repair reclaims (docs/recovery.md, *The fault
    // plan*): a crashed round may need that and nothing else.
    let report = iron::check(&agg).unwrap();
    if round.crashed.is_some() {
        let debris = iron::IronReport {
            leaked_blocks: report.leaked_blocks,
            leaked_vvbns: report.leaked_vvbns,
            volume_accounting_errors: report.volume_accounting_errors,
            ..iron::IronReport::default()
        };
        assert_eq!(report, debris, "seed {seed}: more than crash debris");
        iron::repair(&mut agg).unwrap();
    }
    let report = iron::check(&agg).unwrap();
    assert!(report.is_clean(), "seed {seed}: {report:?}");

    // Invariant 3: the recovered aggregate keeps serving traffic.
    for i in 0..300u64 {
        agg.client_overwrite(VolumeId((i % VOLS as u64) as u32), i % WRITTEN)
            .unwrap_or_else(|e| panic!("seed {seed}: post-recovery write failed: {e}"));
    }
    agg.run_cp()
        .unwrap_or_else(|e| panic!("seed {seed}: post-recovery CP failed: {e}"));
    assert_eq!(agg.health(), HealthState::Healthy, "seed {seed}");
}

/// The full acceptance run:
/// `cargo test --release -p wafl-fs --test scrub_torture -- --ignored`.
#[test]
#[ignore = "long-running, release-only: 200 seeded runtime corruption schedules"]
// A const block would fail the *compile* of debug test builds; the guard
// must only fire when the ignored test is actually run.
#[allow(clippy::assertions_on_constants)]
fn scrub_torture_full() {
    assert!(
        !cfg!(debug_assertions),
        "run with --release: debug bitmap assertions fire on latent \
         scribbles before the scrubber can repair them"
    );
    for seed in 0..200 {
        torture_one(seed);
    }
}

/// One cache-guided volume on one group, `scrub_budget` units per CP.
fn scrub_smoke_agg(scrub_budget: u64) -> Aggregate {
    Aggregate::new(
        AggregateConfig {
            raid_aware_cache: true,
            scrub_pages_per_cp: scrub_budget,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 4 * BITS_PER_BITMAP_BLOCK,
                aa_cache: true,
                aa_blocks: None,
            },
            60_000,
        )],
        1,
    )
    .expect("smoke aggregate")
}

/// The quick scrub gate: two counter scribbles land mid-run on a small
/// cache-guided aggregate; each is detected and repaired by the scan
/// step that reads it, health never leaves Healthy, and the health and
/// scrub gauge families are exported at their settled values. Run by the default
/// `scripts/ci.sh` path:
/// `cargo test --release -p wafl-fs --test scrub_torture -- --ignored --exact scrub_smoke`.
#[test]
#[ignore = "release-only: debug bitmap assertions fire on the scribbles"]
#[allow(clippy::assertions_on_constants)]
fn scrub_smoke() {
    assert!(
        !cfg!(debug_assertions),
        "run with --release: debug bitmap assertions fire on latent \
         scribbles before the scrubber can repair them"
    );
    let mut agg = scrub_smoke_agg(8);
    aging::fill_volume(&mut agg, VolumeId(0), 8_192).expect("fill");
    assert_eq!(agg.health(), HealthState::Healthy);

    // Two mid-run scribbles: one aggregate bitmap-page counter, one
    // volume bitmap-page counter. Both are pure in-memory corruption —
    // the raw bits stay true, so popcount repair must fully recover.
    let at_cp = agg.cp_count() + 1;
    let plan = FaultPlan {
        runtime_scribbles: vec![
            RuntimeScribbleFault {
                target: RuntimeTarget::AggSummaryPage { page: 1 },
                at_cp,
                value_seed: 0xDEAD_BEEF_0001,
            },
            RuntimeScribbleFault {
                target: RuntimeTarget::VolSummaryPage { vol: 0, page: 2 },
                at_cp: at_cp + 1,
                value_seed: 0xDEAD_BEEF_0002,
            },
        ],
        ..FaultPlan::none()
    };
    let mut session = FaultSession::new(&plan);

    // 14 verification units at 8/CP: a full scrub cycle is 2 CPs, so
    // both faults must be detected within 4 traffic CPs of landing.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..8 {
        for _ in 0..2_000 {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..60_000))
                .expect("overwrite");
        }
        agg.run_cp_with_session(None, Some(&mut session))
            .expect("cp");
        let status = agg.scrub_status();
        assert_eq!(status.health, HealthState::Healthy, "{status:?}");
        assert_eq!(status.pending_repairs, 0, "{status:?}");
    }

    let obs = agg.obs();
    let detected = obs.counter_value("scrub.faults_detected").unwrap_or(0);
    assert_eq!(detected, 2, "expected both scribbles detected");
    assert_eq!(
        agg.bitmap().summary_divergences(),
        0,
        "aggregate summaries still diverge after repair"
    );
    for vol in agg.volumes() {
        assert_eq!(
            vol.bitmap().summary_divergences(),
            0,
            "volume summaries still diverge after repair"
        );
    }

    let obs = agg.obs();
    let repaired = obs.counter_value("scrub.repairs_succeeded").unwrap_or(0);
    assert_eq!(repaired, 2, "expected both repairs");

    // Gauge families must be exported with settled values.
    assert_eq!(obs.gauge_value("health.state"), Some(0.0));
    assert_eq!(obs.gauge_value("health.pending_repairs"), Some(0.0));
    let free = obs.gauge_value("space.free_fraction").unwrap_or(-1.0);
    assert!((0.0..=1.0).contains(&free), "free fraction gauge: {free}");
}

/// The HBPS arm: a scribbled bin count, then a list entry naming another
/// listed AA, on the volume's HBPS. Each is caught by the scrub step of
/// the CP it lands in (the budget covers all 14 units) and rebuilt in
/// that step, before the CP allocates: nothing is fenced, allocation
/// never sweeps, and the aggregate stays Healthy with a clean Iron audit.
#[test]
fn hbps_scribbles_are_rebuilt_by_the_step_that_finds_them() {
    let counter = |agg: &Aggregate, name| agg.obs().counter_value(name).unwrap_or(0);
    for target in [
        RuntimeTarget::HbpsBinCount { vol: 0 },
        RuntimeTarget::HbpsListEntry { vol: 0 },
    ] {
        let mut agg = scrub_smoke_agg(32);
        aging::fill_volume(&mut agg, VolumeId(0), 8_192).expect("fill");
        let plan = FaultPlan {
            runtime_scribbles: vec![RuntimeScribbleFault {
                target,
                at_cp: agg.cp_count() + 1,
                value_seed: 0x5EED_0003,
            }],
            ..FaultPlan::none()
        };
        let mut session = FaultSession::new(&plan);
        let mut rng = StdRng::seed_from_u64(7);
        let mut cp = |agg: &mut Aggregate| {
            for _ in 0..2_000 {
                agg.client_overwrite(VolumeId(0), rng.random_range(0..60_000))
                    .expect("overwrite");
            }
            agg.run_cp_with_session(None, Some(&mut session))
                .expect("cp");
        };
        cp(&mut agg);
        assert_eq!(counter(&agg, "scrub.faults_detected"), 0, "{target:?}");
        cp(&mut agg);
        assert_eq!(counter(&agg, "scrub.faults_detected"), 1, "{target:?}");
        assert_eq!(counter(&agg, "scrub.repairs_succeeded"), 1, "{target:?}");
        assert!(!agg.volumes()[0].cache_quarantined(), "{target:?}");
        assert_eq!(agg.health(), HealthState::Healthy, "{target:?}");
        for _ in 0..4 {
            cp(&mut agg);
        }
        assert_eq!(counter(&agg, "scrub.faults_detected"), 1, "{target:?}");
        assert_eq!(
            counter(&agg, "allocator.sweep_fallback_picks"),
            0,
            "{target:?}"
        );
        let report = iron::check(&agg).unwrap();
        assert!(report.is_clean(), "{target:?}: {report:?}");
    }
}
