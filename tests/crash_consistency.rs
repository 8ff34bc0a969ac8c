//! Crash/remount consistency: the TopAA metafile is a performance hint,
//! never a correctness dependency. Whatever state it captures — current,
//! stale, or absent — a remounted system must allocate correctly, and a
//! damaged image must fail loudly rather than corrupt allocation.

use wafl_repro::fs::{aging, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_repro::media::MediaProfile;
use wafl_repro::types::{AaSizingPolicy, VolumeId, WaflError};
use wafl_repro::workloads::{run, RandomOverwrite};

fn build() -> Aggregate {
    Aggregate::new(
        AggregateConfig {
            // Small AAs so the 512-entry TopAA block is a strict subset.
            aa_policy_override: Some(AaSizingPolicy::Stripes { stripes: 64 }),
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 32 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 8 * 32768,
                aa_cache: true,
                aa_blocks: None,
            },
            80_000,
        )],
        13,
    )
    .unwrap()
}

#[test]
fn stale_topaa_image_is_safe() {
    let mut agg = build();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    // Snapshot the TopAA image, then keep running (image goes stale).
    let stale = mount::save_topaa(&agg);
    aging::random_overwrite_churn(&mut agg, VolumeId(0), 60_000, 4096, 21).unwrap();
    let free_before = agg.bitmap().free_blocks();

    mount::crash(&mut agg);
    mount::mount_with_topaa(&mut agg, &stale).unwrap();
    // Stale scores steer allocation suboptimally but never incorrectly:
    // a full traffic round completes with perfect space accounting.
    let mut w = RandomOverwrite::new(VolumeId(0), 80_000, 22);
    run(&mut agg, &mut w, 30_000, 2048).unwrap();
    assert_eq!(agg.bitmap().free_blocks(), free_before);
    mount::complete_background_rebuild(&mut agg).unwrap();
    // After the rebuild, the heap agrees with the bitmap everywhere.
    let g = &agg.groups()[0];
    let cache = g.cache().unwrap();
    assert!(cache.is_complete(), "post-rebuild heap incomplete");
    let truth = |aa| g.topology().score_from_bitmap(agg.bitmap(), aa);
    assert_eq!(cache.audit(truth, g.active_aa()), 0);
}

#[test]
fn repeated_crashes_between_cps() {
    let mut agg = build();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    for round in 0..5 {
        let image = mount::save_topaa(&agg);
        mount::crash(&mut agg);
        if round % 2 == 0 {
            mount::mount_with_topaa(&mut agg, &image).unwrap();
        } else {
            mount::mount_cold(&mut agg).unwrap();
        }
        let mut w = RandomOverwrite::new(VolumeId(0), 80_000, round);
        run(&mut agg, &mut w, 5_000, 1024).unwrap();
    }
    // Occupancy still exactly the working set.
    assert_eq!(
        agg.bitmap().space_len() - agg.bitmap().free_blocks(),
        80_000
    );
}

#[test]
fn corrupted_topaa_blocks_are_rejected() {
    let mut agg = build();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    let mut image = mount::save_topaa(&agg);

    // Scribble the RAID-aware block: scores out of order.
    if let Some(wafl_repro::fs::mount::RgTopAa::Heap(block)) = image.rg_blocks[0].as_mut() {
        block[4..8].copy_from_slice(&0u32.to_le_bytes());
        block[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    }
    mount::crash(&mut agg);
    let err = mount::mount_with_topaa(&mut agg, &image);
    assert!(
        matches!(err, Err(WaflError::CorruptMetafile { .. })),
        "scribbled TopAA must be detected, got {err:?}"
    );
    // The cold path (the WAFL Iron analogue: recompute from bitmaps)
    // always works.
    mount::mount_cold(&mut agg).unwrap();
    let mut w = RandomOverwrite::new(VolumeId(0), 80_000, 3);
    run(&mut agg, &mut w, 5_000, 1024).unwrap();
}

#[test]
fn corrupted_hbps_pages_are_rejected() {
    let mut agg = build();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    let mut image = mount::save_topaa(&agg);
    if let Some((hist, _)) = image.vol_pages[0].as_mut() {
        hist[0] ^= 0xFF; // break the magic
    }
    mount::crash(&mut agg);
    assert!(matches!(
        mount::mount_with_topaa(&mut agg, &image),
        Err(WaflError::CorruptMetafile { .. })
    ));
}

#[test]
fn mount_without_any_image_equals_cold_build() {
    let mut agg = build();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    aging::random_overwrite_churn(&mut agg, VolumeId(0), 40_000, 4096, 31).unwrap();
    let best_live = agg.groups()[0].cache().unwrap().best().unwrap().1;
    mount::crash(&mut agg);
    let stats = mount::mount_cold(&mut agg).unwrap();
    assert!(stats.metafile_blocks_read > 0);
    assert_eq!(stats.background_pages_remaining, 0);
    let best_cold = agg.groups()[0].cache().unwrap().best().unwrap().1;
    assert_eq!(
        best_live, best_cold,
        "cold rebuild recovers the live best score"
    );
}
