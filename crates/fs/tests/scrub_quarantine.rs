//! Scrub-budget integration test: exactly `scrub_pages_per_cp`
//! verification units per CP, so full coverage lands within
//! `ceil(units / budget)` CPs, and a fault is detected within one cycle
//! of landing.
//!
//! It drives only public API (fault plans, empty CPs), so it is
//! debug-safe: no scribbled counter survives to a non-empty CP's summary
//! assertion.

use wafl_faults::{FaultPlan, FaultSession, RuntimeScribbleFault, RuntimeTarget};
use wafl_fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};

const WRITTEN: u64 = 4096;

/// One group, one cache-guided volume, aged just enough that both cache
/// layers carry real scores.
fn scrub_agg(scrub_budget: u64) -> Aggregate {
    let mut agg = Aggregate::new(
        AggregateConfig {
            raid_aware_cache: true,
            scrub_pages_per_cp: scrub_budget,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
                profile: MediaProfile::ssd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 4 * BITS_PER_BITMAP_BLOCK,
                aa_cache: true,
                aa_blocks: None,
            },
            30_000,
        )],
        5,
    )
    .unwrap();
    aging::fill_volume(&mut agg, VolumeId(0), WRITTEN as usize).unwrap();
    agg
}

/// The scan budget is exact — `scrub_pages_per_cp` units per CP, no
/// more, no fewer — and a fault is therefore detected within one full
/// cycle (`ceil(total_units / budget)` CPs) of landing.
#[test]
fn scrub_budget_is_exact_and_covers_in_ceil_cps() {
    const BUDGET: u64 = 5;
    let mut agg = scrub_agg(BUDGET);
    let total = agg.scrub_status().total_units;
    assert!(total > BUDGET, "fixture too small to exercise the cursor");
    let cycle = total.div_ceil(BUDGET);

    let base = agg.obs().counter_value("scrub.pages_scanned").unwrap_or(0);
    for cp in 1..=cycle {
        agg.run_cp().unwrap(); // empty CP: scrub still runs its budget
        let scanned = agg.obs().counter_value("scrub.pages_scanned").unwrap() - base;
        assert_eq!(scanned, BUDGET * cp, "budget must be exact per CP");
    }

    // Land one counter scribble, then prove detection within one cycle.
    let plan = FaultPlan {
        runtime_scribbles: vec![RuntimeScribbleFault {
            target: RuntimeTarget::AggSummaryPage { page: 0 },
            at_cp: agg.cp_count() + 1,
            value_seed: 0x5EED,
        }],
        ..FaultPlan::none()
    };
    let mut session = FaultSession::new(&plan);
    // The scribble lands on the second CP below; the worst case (the
    // unit was scanned just before landing) needs one full cycle after
    // that, so `cycle + 2` CPs bound the detection latency.
    let mut detected_after = None;
    for cp in 1..=cycle + 2 {
        agg.run_cp_with_session(None, Some(&mut session)).unwrap();
        if agg
            .obs()
            .counter_value("scrub.faults_detected")
            .unwrap_or(0)
            > 0
        {
            detected_after = Some(cp);
            break;
        }
    }
    detected_after.expect("fault not detected within one scrub cycle of landing");
}
