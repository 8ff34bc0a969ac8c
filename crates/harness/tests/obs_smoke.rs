//! Observability smoke gate: runs a small cache-guided aggregate through
//! client traffic, CPs, a crash/remount cycle, and an iron audit, then
//! asserts the metrics registry actually saw the allocator pipeline.
//!
//! Invariants checked:
//!
//! - the snapshot covers allocator, CP (model and `cp.wall.*`
//!   measured), and mount metric families;
//! - the headline counters are nonzero after real work;
//! - the `cp.phase.*` histograms sum to the CPs' modelled CPU and media
//!   time;
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

    // The six CPU-model terms' histograms, then the media one: their
    // sums over the measured CPs must add up to those CPs' `CpStats`.
    let phase_sums = |agg: &Aggregate| {
        let sum = |name: &str| {
            let h = agg.obs().histogram_handle(name);
            h.unwrap_or_else(|| panic!("{name} registered")).sum()
        };
        let cpu = [
            "cp.phase.client_ops_us",
            "cp.phase.metafile_us",
            "cp.phase.block_writes_us",
            "cp.phase.alloc_scan_us",
            "cp.phase.cache_maintenance_us",
            "cp.phase.replenish_scan_us",
        ];
        (cpu.map(sum).iter().sum::<f64>(), sum("cp.phase.media_us"))
    };
    let (cpu_before, media_before) = phase_sums(&agg);
    let (mut cpu_us, mut media_us) = (0.0, 0.0);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..6 {
        for _ in 0..2_000 {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..60_000))
                .expect("overwrite");
        }
        let stats = agg.run_cp().expect("cp");
        cpu_us += stats.cpu_us;
        media_us += stats.media_us;
    }
    let (cpu_after, media_after) = phase_sums(&agg);
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
    assert!(cpu_us > 0.0 && media_us > 0.0);
    assert!(
        close(cpu_after - cpu_before, cpu_us),
        "cp.phase CPU terms sum to {} µs, the CPs' cpu_us to {cpu_us}",
        cpu_after - cpu_before
    );
    assert!(
        close(media_after - media_before, media_us),
        "cp.phase.media_us sums to {} µs, the CPs' media_us to {media_us}",
        media_after - media_before
    );

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
