//! Crash-consistency and degraded-mount integration tests.
//!
//! The torture driver closes the loop the paper leaves to WAFL Iron
//! (§3.4): damage the persisted TopAA state, tear a consistency point at
//! a scheduled crash site, remount in degraded mode, and prove the
//! system either checks clean or repairs to clean — then keeps serving
//! CPs. Every schedule is derived from a seed, so any failure reproduces
//! from its seed alone.

use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::BTreeSet;
use wafl_faults::{
    CrashSite, FaultPlan, FaultSession, PageSel, PlanShape, ReadErrorFault, ScribbleFault,
    StructureId, PERSISTENT,
};
use wafl_fs::mount::{self, DegradedPart};
use wafl_fs::{aging, iron, Aggregate, AggregateConfig, CpOutcome, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_oracle::popcount_score;
use wafl_types::{AaId, AaScore, RetryPolicy, VolumeId};

const GROUPS: usize = 2;
const VOLS: usize = 2;
const VOL_BLOCKS: u64 = 4 * 32768;
const WRITTEN: u64 = 4096;

/// Two RAID groups and two volumes of `logical` client blocks, unwritten.
fn new_agg(batched_frees: bool, logical: u64) -> Aggregate {
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: 16 * 4096,
        profile: MediaProfile::hdd(),
    };
    let mut cfg = AggregateConfig::single_group(spec.clone());
    cfg.raid_groups.push(spec);
    cfg.batched_frees = batched_frees;
    if batched_frees {
        cfg.free_pages_per_cp = 2;
    }
    let vol_cfgs: Vec<_> = (0..VOLS)
        .map(|_| {
            (
                FlexVolConfig {
                    size_blocks: VOL_BLOCKS,
                    aa_cache: true,
                    aa_blocks: None,
                },
                logical,
            )
        })
        .collect();
    Aggregate::new(cfg, &vol_cfgs, 3).unwrap()
}

/// Two RAID groups, two volumes, aged with enough churn that every cache
/// has meaningful content and the delayed-free machinery carries state.
fn aged_agg(batched_frees: bool) -> Aggregate {
    let mut a = new_agg(batched_frees, 30_000);
    for v in 0..VOLS {
        aging::fill_volume(&mut a, VolumeId(v as u32), WRITTEN as usize).unwrap();
        aging::random_overwrite_churn(
            &mut a,
            VolumeId(v as u32),
            6_000,
            WRITTEN as usize,
            v as u64,
        )
        .unwrap();
    }
    a
}

/// Blocks of each volume [`half_written_agg`] has written: `write_fresh`
/// goes on from here.
const HALF: u64 = 30_000;

/// Like [`aged_agg`], with the upper half of every volume never written.
/// First writes there free nothing, so what a CP drains stays drained.
fn half_written_agg() -> Aggregate {
    let mut a = new_agg(false, 2 * HALF);
    let mut rng = StdRng::seed_from_u64(11);
    for v in 0..VOLS as u32 {
        aging::fill_volume_fraction(&mut a, VolumeId(v), 0.5, WRITTEN as usize).unwrap();
        for _ in 0..2 {
            for _ in 0..3_000 {
                a.client_overwrite(VolumeId(v), rng.random_range(0..HALF))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
    }
    a
}

/// Bitmap pages one RAID group's cold rebuild scans.
fn group_pages(a: &Aggregate, i: usize) -> u64 {
    a.groups()[i]
        .geometry
        .data_blocks()
        .div_ceil(wafl_types::BITS_PER_BITMAP_BLOCK)
}

/// The active AA of every RAID group, then of every volume.
fn actives(a: &Aggregate) -> Vec<Option<AaId>> {
    let groups = a.groups().iter().map(|g| g.active_aa());
    groups
        .chain(a.volumes().iter().map(|v| v.active_aa()))
        .collect()
}

/// What holds after any mount once the background rebuild has run: the
/// heap has a score for every AA of its group, and ranks each one or has
/// handed it to the allocator — never both, never neither.
fn assert_ranked_xor_active(a: &Aggregate, ctx: &str) {
    for (i, g) in a.groups().iter().enumerate() {
        let cache = g.cache().expect("heap-cached group");
        assert!(cache.is_complete(), "{ctx}: group {i} incomplete");
        let truth = |aa| AaScore(popcount_score(g.topology(), a.bitmap(), aa));
        let bad = cache.audit(truth, g.active_aa());
        assert_eq!(bad, 0, "{ctx}: group {i} (active {:?})", g.active_aa());
    }
}

// ---------------------------------------------------------------------
// Satellite: orphan accounting surfaced instead of discarded.
// ---------------------------------------------------------------------

#[test]
fn orphaned_aging_seeds_are_counted_not_flagged() {
    let mut a = aged_agg(false);
    let before = iron::check(&a).unwrap();
    assert!(before.is_clean(), "{before:?}");
    assert_eq!(before.orphaned_blocks, 0);

    aging::seed_rg_random_occupancy(&mut a, 1, 0.3, 7).unwrap();
    let report = iron::check(&a).unwrap();
    assert!(report.orphaned_blocks > 0, "{report:?}");
    assert!(
        report.is_clean(),
        "orphans are fixture state, not damage: {report:?}"
    );
    // Repair on a clean-but-orphaned aggregate is a no-op.
    let repaired = iron::repair(&mut a).unwrap();
    assert_eq!(repaired.repairs, 0, "{repaired:?}");
    assert_eq!(repaired.orphaned_blocks, report.orphaned_blocks);
}

// ---------------------------------------------------------------------
// Satellite: per-structure degradation with mixed mount cost.
// ---------------------------------------------------------------------

#[test]
fn scribbled_group_degrades_alone_others_fast_path() {
    let mut a = aged_agg(false);
    let mut image = mount::save_topaa(&a);
    let mut filling = actives(&a);
    assert!(filling.iter().all(Option::is_some), "{filling:?}");
    mount::crash(&mut a);

    let plan = FaultPlan::scribble(StructureId::Group(0), PageSel::First, 42);
    mount::apply_scribbles(&mut image, &plan);
    let stats = mount::mount_auto(&mut a, &image);

    assert_eq!(stats.degraded.len(), 1, "{:?}", stats.degraded);
    let ev = &stats.degraded[0];
    assert_eq!(ev.part, DegradedPart::Group(0));
    assert_eq!(ev.pages_scanned, group_pages(&a, 0));
    // The cold-rebuilt cache ranks every AA, so the degraded group starts
    // with none active; everything else goes on filling what it was.
    filling[0] = None;
    assert_eq!(actives(&a), filling);
    assert!(a.groups()[0].cache_quarantined());
    let counter = |name| a.obs().counter_value(name);
    assert_eq!(counter("mount.active_resumed"), Some(3));
    assert_eq!(counter("mount.active_dropped"), Some(1));
    // Mixed cost: more than an all-fast mount (1 block per heap group +
    // 2 per volume), less than an all-cold one (every bitmap page).
    let fast = (GROUPS + 2 * VOLS) as u64;
    let cold: u64 = (0..GROUPS).map(|i| group_pages(&a, i)).sum::<u64>()
        + a.volumes()
            .iter()
            .map(|v| v.bitmap().page_count() as u64)
            .sum::<u64>();
    assert!(
        stats.metafile_blocks_read > fast && stats.metafile_blocks_read < cold,
        "mixed mount read {} blocks (fast={fast}, cold={cold})",
        stats.metafile_blocks_read
    );
    // Every structure has an operational cache; the degraded group's is
    // complete (cold rebuilds scan everything), so less background debt
    // than a fully fast mount would owe it.
    assert!(a.groups()[0].cache().unwrap().is_complete());
    for v in a.volumes() {
        assert!(v.cache().is_some());
    }
    // And the aggregate still serves a CP.
    for l in 0..500 {
        a.client_overwrite(VolumeId(0), l).unwrap();
    }
    a.run_cp().unwrap();
    assert!(iron::check(&a).unwrap().is_clean());
}

#[test]
fn every_structure_scribbled_still_mounts() {
    let mut a = aged_agg(false);
    let mut image = mount::save_topaa(&a);
    mount::crash(&mut a);

    let mut plan = FaultPlan::none();
    for g in 0..GROUPS {
        plan.scribbles.push(ScribbleFault {
            target: StructureId::Group(g),
            page: PageSel::First,
            offset: 64,
            len: 48,
            pattern_seed: g as u64,
        });
    }
    for v in 0..VOLS {
        for page in [PageSel::First, PageSel::Second] {
            plan.scribbles.push(ScribbleFault {
                target: StructureId::Volume(v),
                page,
                offset: 512,
                len: 16,
                pattern_seed: 100 + v as u64,
            });
        }
    }
    mount::apply_scribbles(&mut image, &plan);
    let stats = mount::mount_auto(&mut a, &image);
    assert_eq!(stats.degraded.len(), GROUPS + VOLS, "{:?}", stats.degraded);
    for g in a.groups() {
        assert!(g.cache().is_some());
    }
    for v in a.volumes() {
        assert!(v.cache().is_some());
    }
    for l in 0..500 {
        a.client_overwrite(VolumeId(1), l).unwrap();
    }
    a.run_cp().unwrap();
}

// ---------------------------------------------------------------------
// Transient vs persistent metafile read errors.
// ---------------------------------------------------------------------

#[test]
fn transient_read_errors_are_retried_not_degraded() {
    let mut a = aged_agg(false);
    let image = mount::save_topaa(&a);
    mount::crash(&mut a);

    let plan = FaultPlan {
        read_errors: vec![ReadErrorFault {
            target: StructureId::Group(0),
            failures: 2,
        }],
        ..FaultPlan::default()
    };
    let mut session = FaultSession::new(&plan);
    let stats = mount::mount_auto_with(&mut a, &image, &mut session, RetryPolicy::default());
    assert_eq!(stats.transient_retries, 2);
    assert!(stats.degraded.is_empty(), "{:?}", stats.degraded);
    assert_eq!(
        a.obs().counter_value("mount.topaa_seed_hits"),
        Some((GROUPS + VOLS) as u64),
        "fast path"
    );
}

#[test]
fn transient_errors_beyond_retry_budget_degrade() {
    let mut a = aged_agg(false);
    let image = mount::save_topaa(&a);
    mount::crash(&mut a);

    let plan = FaultPlan {
        read_errors: vec![ReadErrorFault {
            target: StructureId::Volume(0),
            failures: 10, // more than the retry budget, but not PERSISTENT
        }],
        ..FaultPlan::default()
    };
    let mut session = FaultSession::new(&plan);
    let stats = mount::mount_auto_with(
        &mut a,
        &image,
        &mut session,
        RetryPolicy::with_max_retries(3),
    );
    assert_eq!(stats.degraded.len(), 1);
    assert_eq!(stats.degraded[0].part, DegradedPart::Volume(0));
    assert_eq!(stats.transient_retries, 3, "budget fully consumed");
    assert!(a.volumes()[0].cache().is_some());
}

#[test]
fn persistent_read_error_degrades_only_its_structure() {
    let mut a = aged_agg(false);
    let image = mount::save_topaa(&a);
    mount::crash(&mut a);

    let plan = FaultPlan {
        read_errors: vec![ReadErrorFault {
            target: StructureId::Volume(1),
            failures: PERSISTENT,
        }],
        ..FaultPlan::default()
    };
    let mut session = FaultSession::new(&plan);
    let stats = mount::mount_auto_with(&mut a, &image, &mut session, RetryPolicy::default());
    assert_eq!(stats.transient_retries, 0, "no point retrying");
    assert_eq!(stats.degraded.len(), 1);
    assert_eq!(stats.degraded[0].part, DegradedPart::Volume(1));
    for l in 0..200 {
        a.client_overwrite(VolumeId(1), l).unwrap();
    }
    a.run_cp().unwrap();
    assert!(iron::check(&a).unwrap().is_clean());
}

#[test]
fn missing_image_structures_degrade_instead_of_erroring() {
    let mut a = aged_agg(false);
    let mut image = mount::save_topaa(&a);
    mount::crash(&mut a);
    image.rg_blocks[1] = None;
    image.vol_pages[0] = None;
    let stats = mount::mount_auto(&mut a, &image);
    let parts: Vec<_> = stats.degraded.iter().map(|e| e.part).collect();
    assert_eq!(
        parts,
        vec![DegradedPart::Group(1), DegradedPart::Volume(0)],
        "{:?}",
        stats.degraded
    );
}

// ---------------------------------------------------------------------
// The allocator context in the image: a hint, checked, never trusted.
// ---------------------------------------------------------------------

/// First writes of `n` logical blocks per volume from `*next` on.
fn write_fresh(a: &mut Aggregate, next: &mut u64, n: u64) {
    for v in 0..VOLS as u32 {
        for l in *next..*next + n {
            a.client_overwrite(VolumeId(v), l).unwrap();
        }
    }
    *next += n;
}

#[test]
fn a_stale_image_naming_an_aa_drained_since_drops_the_hint() {
    let mut a = half_written_agg();
    let mut next = HALF;
    let left = |a: &Aggregate| {
        let g = &a.groups()[0];
        let aa = g.active_aa().expect("group 0 is mid-AA");
        (aa, g.topology().score_from_bitmap(a.bitmap(), aa).get())
    };
    // Fill group 0's active AA down to its last few hundred blocks.
    while left(&a).1 > 600 {
        let n = (left(&a).1 / 4).clamp(50, 1000) as u64;
        write_fresh(&mut a, &mut next, n);
        a.run_cp().unwrap();
    }
    let (named, _) = left(&a);
    let image = mount::save_topaa(&a);
    // The next CP drains it and moves on, and dies before the TopAA
    // persist: the surviving image is one CP stale.
    write_fresh(&mut a, &mut next, 2000);
    let outcome = a
        .run_cp_with_faults(Some(CrashSite::BeforeTopAaPersist))
        .unwrap();
    assert!(matches!(outcome, CpOutcome::Crashed(_)));
    assert_ne!(a.groups()[0].active_aa(), Some(named), "drained in that CP");
    mount::crash(&mut a);
    let stats = mount::mount_auto(&mut a, &image);
    assert!(stats.degraded.is_empty(), "{:?}", stats.degraded);
    assert_eq!(
        a.groups()[0].active_aa(),
        None,
        "{named:?} has nothing left"
    );
    assert!(a.obs().counter_value("mount.active_dropped").unwrap() >= 1);
    // Whatever was resumed can be filled, and the stale seed scores are
    // Iron's to find, as before.
    for (g, aa) in a.groups().iter().filter_map(|g| Some((g, g.active_aa()?))) {
        assert!(g.topology().score_from_bitmap(a.bitmap(), aa).get() > 0);
    }
    if !iron::check(&a).unwrap().is_clean() {
        iron::repair(&mut a).unwrap();
    }
    write_fresh(&mut a, &mut next, 300);
    a.run_cp().unwrap();
    mount::complete_background_rebuild(&mut a).unwrap();
    assert_ranked_xor_active(&a, "stale image");
    assert!(iron::check(&a).unwrap().is_clean());
}

/// Allocation decisions and write quality of one run.
#[derive(Debug, Default)]
struct Filling {
    /// The AAs each structure (groups, then volumes) was seen filling.
    filled: Vec<BTreeSet<AaId>>,
    /// Picks the CPs counted, physical and virtual.
    picks: u64,
    full_stripes: u64,
    partial_stripes: u64,
}

/// `cycles` CPs of first writes; with `crash`, every CP is followed by
/// save → crash → mount → background rebuild.
fn fill_in_cycles(cycles: usize, crash: bool) -> Filling {
    let mut a = half_written_agg();
    let mut next = HALF;
    let mut out = Filling {
        filled: vec![BTreeSet::new(); GROUPS + VOLS],
        ..Filling::default()
    };
    for cycle in 0..cycles {
        write_fresh(&mut a, &mut next, 800);
        let s = a.run_cp().unwrap();
        out.picks += s.agg_picks + s.vol_picks;
        out.full_stripes += s.per_rg.iter().map(|r| r.full_stripes).sum::<u64>();
        out.partial_stripes += s.per_rg.iter().map(|r| r.partial_stripes).sum::<u64>();
        for (seen, aa) in out.filled.iter_mut().zip(actives(&a)) {
            seen.extend(aa);
        }
        if crash {
            let image = mount::save_topaa(&a);
            mount::crash(&mut a);
            let stats = mount::mount_auto(&mut a, &image);
            assert!(stats.degraded.is_empty(), "cycle {cycle}: {stats:?}");
            mount::complete_background_rebuild(&mut a).unwrap();
            assert_ranked_xor_active(&a, "mount cycle");
        }
    }
    assert!(iron::check(&a).unwrap().is_clean());
    out
}

/// The gate: a mount after every CP fills no more AAs in any structure
/// and writes no fewer full stripes than the same writes with no crash at
/// all. (A mount that forgot what it was filling picked a new AA in every
/// structure in every cycle: 92 picks here against 2.)
#[test]
fn mount_cycles_fill_the_same_aas_as_an_uninterrupted_run() {
    const CYCLES: usize = 24;
    let steady = fill_in_cycles(CYCLES, false);
    let cycled = fill_in_cycles(CYCLES, true);
    for (c, s) in cycled.filled.iter().zip(&steady.filled) {
        assert!(c.len() <= s.len(), "{cycled:?} vs {steady:?}");
    }
    assert!(
        cycled.picks <= steady.picks
            && cycled.full_stripes >= steady.full_stripes
            && cycled.partial_stripes <= steady.partial_stripes,
        "{cycled:?} vs {steady:?}"
    );
    // The run crosses AA boundaries, yet picks far less often than once
    // per structure per cycle — forgetting would show.
    assert!((1..CYCLES as u64).contains(&steady.picks), "{steady:?}");
}

// ---------------------------------------------------------------------
// The torture loop: traffic → torn CP + corruption → degraded remount →
// check/repair → more traffic. Seeded and fully reproducible.
// ---------------------------------------------------------------------

fn torture_one(seed: u64) {
    let batched = seed.is_multiple_of(2);
    let mut agg = aged_agg(batched);
    let shape = PlanShape {
        groups: GROUPS,
        volumes: VOLS,
        max_progress: 600,
    };
    let plan = FaultPlan::random(seed, shape);

    // Client traffic since the last CP: overwrites with a sprinkle of
    // deletes, so the torn CP has binds, delayed frees, and deletions
    // in flight.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7051_7051);
    for _ in 0..600 {
        let vol = VolumeId(rng.random_range(0..VOLS as u32));
        let logical = rng.random_range(0..WRITTEN);
        if rng.random_bool(0.05) {
            let _ = agg.client_delete(vol, logical);
        } else {
            agg.client_overwrite(vol, logical).unwrap();
        }
    }

    // The TopAA image persisted by the *previous* CP survives the crash;
    // only a CP that reached its TopAA-persist step refreshes it.
    let mut image = mount::save_topaa(&agg);
    match agg
        .run_cp_with_faults(plan.crash)
        .unwrap_or_else(|e| panic!("seed {seed}: CP failed outright: {e}"))
    {
        CpOutcome::Completed(_) | CpOutcome::Crashed(CrashSite::AfterTopAaPersist) => {
            image = mount::save_topaa(&agg);
        }
        CpOutcome::Crashed(_) => {} // image stays one CP stale
    }

    mount::crash(&mut agg);
    mount::apply_scribbles(&mut image, &plan);
    let mut session = FaultSession::new(&plan);
    let stats = mount::mount_auto_with(&mut agg, &image, &mut session, RetryPolicy::default());

    // Invariant 1: degraded mount always completes with operational caches.
    for g in agg.groups() {
        assert!(g.cache().is_some(), "seed {seed}: group cache missing");
    }
    for v in agg.volumes() {
        assert!(v.cache().is_some(), "seed {seed}: volume cache missing");
    }

    // Invariant 2: the aggregate checks clean, or repairs to clean.
    let report = iron::check(&agg).unwrap();
    if !report.is_clean() {
        let repaired = iron::repair(&mut agg).unwrap();
        assert!(
            repaired.repairs > 0,
            "seed {seed}: dirty check but no repairs: {repaired:?} (mount: {stats:?})"
        );
        let after = iron::check(&agg).unwrap();
        assert!(
            after.is_clean(),
            "seed {seed}: still dirty after repair: {after:?} (was {report:?})"
        );
    }

    // Invariant 3: the remounted aggregate keeps serving CPs.
    for _ in 0..300 {
        let vol = VolumeId(rng.random_range(0..VOLS as u32));
        agg.client_overwrite(vol, rng.random_range(0..WRITTEN))
            .unwrap();
    }
    agg.run_cp()
        .unwrap_or_else(|e| panic!("seed {seed}: post-remount CP failed: {e}"));
    assert!(
        iron::check(&agg).unwrap().is_clean(),
        "seed {seed}: dirty after post-remount CP"
    );

    // Invariant 4: the background rebuild leaves every heap complete and
    // no AA both ranked and held by the allocator, whatever the mount
    // resumed or dropped.
    mount::complete_background_rebuild(&mut agg).unwrap();
    assert_ranked_xor_active(&agg, &format!("seed {seed}"));
    assert!(
        iron::check(&agg).unwrap().is_clean(),
        "seed {seed}: dirty after the background rebuild"
    );
}

#[test]
fn torture_smoke() {
    for seed in 0..25 {
        torture_one(seed);
    }
}

/// The full acceptance run: `cargo test -p wafl-fs --test crash_consistency -- --ignored`
#[test]
#[ignore = "long-running: 200 seeded crash/corrupt/remount schedules"]
fn torture_full() {
    for seed in 0..200 {
        torture_one(seed);
    }
}
