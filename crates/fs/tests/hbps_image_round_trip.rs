//! A live HBPS — a volume's, or an object-store group's — must stay an
//! exact index of its bitmap, and the TopAA image it writes must be one
//! `from_pages_for` accepts.
//!
//! On an aged volume with more AAs than the list page holds, the
//! allocator's mid-CP replenish used to rescan the bitmap while the
//! CP's batch still held the allocations that rescan had just read; at
//! the CP boundary the batch was applied on top, moving AAs out of bins
//! they were no longer counted in. The histogram drifted, the list grew
//! duplicates, and sooner or later a bin listed more entries than it
//! counted — an image `from_pages` rejects, so the next mount degraded.
//!
//! The group path had the same hazard: a replenish in the middle of a
//! CP's planning reads a bitmap that holds the CP's earlier claims (and
//! the frees of a force-drain ahead of round 0) while the group's batch
//! still carried them. Takes and frees now enter the batch where they
//! are applied, and a replenish spends it.
//!
//! An object-store group's HBPS is a volume's cache and takes the same
//! steps, the CP-boundary replenish included: it is never left with its
//! best counted bin unlisted, the state in which picks come from a worse
//! bin than the error margin allows.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_bitmap::Bitmap;
use wafl_core::{AaTopology, Hbps};
use wafl_fs::{aging, iron, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::VolumeId;
use wafl_workloads::{Op, RandomOverwrite, Workload};

const OPS_PER_CP: usize = 8192;

/// The repo benchmark's `aged_overwrite` file system: one HDD 4+1 group
/// of 4 Mi PVBNs, one volume of 2 048 virtual AAs (twice the HBPS list
/// page) whose logical size is 55 % of the aggregate, filled and then
/// fragmented by two volumes' worth of random overwrites.
fn aged_volume(seed: u64) -> (Aggregate, u64) {
    let cfg = AggregateConfig::single_group(RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: 256 * 4096,
        profile: MediaProfile::hdd(),
    });
    let pvbns = cfg.total_data_blocks();
    let logical = pvbns * 55 / 100;
    let vol = FlexVolConfig {
        size_blocks: pvbns,
        aa_cache: true,
        aa_blocks: Some(2048),
    };
    let mut agg = Aggregate::new(cfg, &[(vol, logical)], 0).unwrap();
    aging::fill_volume(&mut agg, VolumeId(0), OPS_PER_CP).unwrap();
    aging::random_overwrite_churn(&mut agg, VolumeId(0), 2 * logical, OPS_PER_CP, seed).unwrap();
    (agg, logical)
}

/// The HBPS passes its audit against the bitmap's scores, and the image
/// it writes reads back.
fn check_hbps(hbps: &Hbps, topology: &AaTopology, bitmap: &Bitmap, ctx: &str) {
    assert_eq!(hbps.audit(topology.all_scores(bitmap)), 0, "{ctx}: drifted");

    // `from_pages_for` also rejects a list that names an AA twice or
    // one outside the space.
    let (hist, list) = hbps.to_pages();
    let back = Hbps::from_pages_for(topology, &hist, &list)
        .unwrap_or_else(|e| panic!("{ctx}: the image to_pages wrote is rejected: {e}"));
    assert_eq!(back.bin_counts(), hbps.bin_counts(), "{ctx}");
    assert_eq!(back.list_len(), hbps.list_len(), "{ctx}");
}

fn check_volume_hbps(agg: &Aggregate, ctx: &str) {
    let vol = &agg.volumes()[0];
    let hbps = vol.cache().expect("volume has its AA cache").hbps();
    check_hbps(hbps, vol.topology(), vol.bitmap(), ctx);
}

#[test]
fn aged_volume_hbps_round_trips_after_every_cp() {
    let (mut agg, logical) = aged_volume(0xA6ED);
    check_volume_hbps(&agg, "after aging");
    let mut ops = RandomOverwrite::new(VolumeId(0), logical, 7);
    let mut mid_cp_replenishes = 0;
    for cp in 0..240 {
        for _ in 0..OPS_PER_CP {
            let Op::Write { vol, logical } = ops.next_op() else {
                unreachable!("RandomOverwrite only writes");
            };
            agg.client_overwrite(vol, logical).unwrap();
        }
        let stats = agg.run_cp().unwrap();
        mid_cp_replenishes += (stats.replenish_pages > 0) as u32;
        check_volume_hbps(&agg, &format!("cp {cp}"));
        // The benchmark's mount cycle: the image must mount with
        // nothing degraded, and the restored cache must carry on.
        if cp % 40 == 39 {
            let image = mount::save_topaa(&agg);
            mount::crash(&mut agg);
            let mounted = mount::mount_auto(&mut agg, &image);
            assert!(
                mounted.degraded.is_empty(),
                "cp {cp}: {:?}",
                mounted.degraded
            );
            check_volume_hbps(&agg, &format!("mount after cp {cp}"));
        }
    }
    assert!(
        mid_cp_replenishes > 0,
        "the run must exercise the replenish scan it guards"
    );
}

const NEAR_FULL_LOGICAL: u64 = 250_000;
const FREE_PAGES_PER_CP: usize = 1;

/// A 95 %-full aggregate on one object-store group of 64 × 4 096 blocks
/// with batched frees, one page of them applied a CP, under one volume of
/// 8 virtual AAs; `aa_cache` says whether the volume has its HBPS.
fn near_full_object_store(aa_cache: bool) -> Aggregate {
    let mut agg = Aggregate::new(
        AggregateConfig {
            batched_frees: true,
            free_pages_per_cp: FREE_PAGES_PER_CP,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 1,
                parity_devices: 0,
                device_blocks: 64 * 4096,
                profile: MediaProfile::object_store(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 8 * 32768,
                aa_cache,
                aa_blocks: None,
            },
            NEAR_FULL_LOGICAL,
        )],
        0,
    )
    .unwrap();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    agg
}

/// The group's HBPS passes its audit, writes an image that reads back,
/// and lists an AA of its best counted bin.
fn check_group(agg: &Aggregate, ctx: &str) {
    let g = &agg.groups()[0];
    let hbps = g.hbps_cache().expect("object-store groups rank by HBPS");
    check_hbps(hbps, g.topology(), agg.bitmap(), ctx);
    assert!(!hbps.needs_replenish(0), "{ctx}: best counted bin unlisted");
}

/// An object-store group (HBPS-cached) at 95 % full with batched frees:
/// every few CPs the writes exceed the free blocks, the delayed-free log
/// is force-drained before the first planning round, and the rounds
/// replenish the group's HBPS against a bitmap that already holds the
/// drained frees and this CP's earlier claims.
#[test]
fn near_full_object_store_group_hbps_round_trips_after_every_cp() {
    let mut agg = near_full_object_store(true);
    check_group(&agg, "after fill");
    let mut ops = RandomOverwrite::new(VolumeId(0), NEAR_FULL_LOGICAL, 5);
    let mut force_drain_cps = 0;
    for cp in 0..30 {
        for _ in 0..4096 {
            let Op::Write { vol, logical } = ops.next_op() else {
                unreachable!("RandomOverwrite only writes");
            };
            agg.client_overwrite(vol, logical).unwrap();
        }
        let stats = agg.run_cp().unwrap();
        // Only a force-drain writes more free pages than the per-CP
        // budget.
        force_drain_cps += (stats.delayed_free_pages > FREE_PAGES_PER_CP as u64) as u32;
        check_group(&agg, &format!("cp {cp}"));
    }
    assert!(
        force_drain_cps > 0,
        "the run must force-drain the log, as the replenishes it guards need"
    );
}

/// The same near-full group under a volume without a cache, so that the
/// group's HBPS is the only one picked from: after every CP it lists an
/// AA of its best counted bin, because the CP boundary replenishes it as
/// it does a volume's.
#[test]
fn a_near_full_object_store_groups_hbps_keeps_its_best_bin_listed() {
    let mut agg = near_full_object_store(false);
    let mut rng = StdRng::seed_from_u64(5);
    for cp in 0..50 {
        for _ in 0..4096 {
            let logical = rng.random_range(0..NEAR_FULL_LOGICAL);
            agg.client_overwrite(VolumeId(0), logical).unwrap();
        }
        agg.run_cp().unwrap();
        let report = iron::check(&agg).unwrap();
        assert!(report.is_clean(), "cp {cp}: {report:?}");
        check_group(&agg, &format!("cp {cp}"));
    }
}
