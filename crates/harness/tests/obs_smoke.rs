//! Observability smoke gate: runs a small cache-guided aggregate through
//! client traffic, CPs, a crash/remount cycle, and an iron audit, then
//! asserts the metrics registry actually saw the allocator pipeline.
//!
//! Invariants checked:
//!
//! - the snapshot covers allocator, HBPS, CP (model and `cp.wall.*`
//!   measured), and mount metric families;
//! - the headline counters are nonzero after real work;
//! - every cache-guided pick's score error stays within one HBPS bin
//!   width of the true best AA (the paper's 3.125 % bound, §2.3).
//!
//! Run alone: `cargo test -p wafl-harness --test obs_smoke`.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_fs::{iron, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};

fn smoke_aggregate() -> Aggregate {
    Aggregate::new(
        AggregateConfig {
            raid_aware_cache: true,
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

#[test]
fn metrics_cover_the_pipeline_and_picks_stay_within_one_bin_width() {
    let mut agg = smoke_aggregate();
    wafl_fs::aging::fill_volume(&mut agg, VolumeId(0), 8_192).expect("fill");

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..6 {
        for _ in 0..2_000 {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..60_000))
                .expect("overwrite");
        }
        agg.run_cp().expect("cp");
    }

    // Crash and remount from a saved TopAA image so the mount metrics
    // fire, then audit so the iron metrics fire.
    let image = mount::save_topaa(&agg);
    mount::crash(&mut agg);
    mount::mount_auto(&mut agg, &image);
    let audit = iron::check(&agg).expect("audit");
    assert!(
        audit.is_clean(),
        "smoke aggregate must audit clean: {audit:?}"
    );

    let obs = agg.obs();
    let snapshot = obs.snapshot_json();

    // Family coverage: one representative key per subsystem.
    for key in [
        "allocator.aas_claimed",
        "allocator.blocks_examined",
        "allocator.pick_score_error_bin_widths",
        "hbps.bin_moves",
        "heap.rebalances",
        "cp.completed",
        "cp.phase.client_ops_us",
        "cp.phase.media_us",
        "cp.wall.total_us",
        "cp.wall.plan_physical_us",
        "cp.wall.rebalance_us",
        "mount.topaa_seed_hits",
        "mount.active_resumed",
        "mount.active_dropped",
        "iron.audits_run",
        "allocator.cursor_hits",
        "allocator.cursor_misses",
        "vol=0.space.free_fraction",
    ] {
        assert!(
            snapshot.contains(&format!("\"{key}\"")),
            "snapshot missing metric {key}"
        );
    }

    // Headline counters must be nonzero after real traffic.
    let nonzero = |name: &str| {
        let v = obs.counter_value(name).unwrap_or(0);
        assert!(v > 0, "counter {name} expected nonzero, got {v}");
        v
    };
    nonzero("cp.completed");
    nonzero("allocator.aas_claimed");
    nonzero("allocator.blocks_examined");
    nonzero("mount.topaa_seed_hits");
    // The traffic left the group and the volume mid-AA, and the image is
    // fresh: the mount resumes both and drops neither.
    assert_eq!(nonzero("mount.active_resumed"), 2);
    assert_eq!(obs.counter_value("mount.active_dropped"), Some(0));
    nonzero("iron.audits_run");
    // Every volume's first drain of an AA is a cursor miss, so traffic
    // guarantees this one; hits depend on drain interleaving and are
    // covered by the allocator unit tests instead.
    nonzero("allocator.cursor_misses");
    // Wall-clock phase histograms accrue on every CP.
    let wall = obs
        .histogram_handle("cp.wall.total_us")
        .expect("wall histogram registered");
    assert!(
        wall.count() > 0 && wall.sum() > 0.0,
        "cp.wall.total_us empty"
    );

    // The paper's bound: a cache-guided pick is at most one bin width
    // below the true best score. The histogram stores err / bin_width,
    // so its max must not exceed 1.0.
    let err = obs
        .histogram_handle("allocator.pick_score_error_bin_widths")
        .expect("pick-error histogram registered");
    assert!(
        err.max() <= 1.0 + 1e-9,
        "chosen-AA score error exceeded one bin width: {}",
        err.max()
    );
}
