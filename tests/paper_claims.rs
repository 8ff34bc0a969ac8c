//! Fast cross-crate checks of the paper's qualitative claims, at smaller
//! scale than the harness experiments (which have their own shape tests
//! in `wafl-harness`).

use wafl_repro::aa::{Hbps, HbpsConfig};
use wafl_repro::fs::{aging, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_repro::media::{MediaProfile, SsdFtl};
use wafl_repro::types::{AaId, AaScore, VolumeId};
use wafl_repro::workloads::{run, RandomOverwrite};

/// §3.3.2: "this AA cache uses exactly two pages of memory" — verified
/// against a volume with a million AAs' worth of score traffic, and on
/// aged volumes of two sizes at the 2 048- and 32 768-block AAs volumes
/// use. Beside its bitmap pages, an aged volume's free-space state is one
/// summary counter per AA and the HBPS's two pages: nothing grows with
/// the traffic it has seen.
#[test]
fn hbps_memory_is_constant() {
    let big = Hbps::build(
        HbpsConfig::default(),
        (0..2_000_000u32).map(|i| (AaId(i), AaScore(i % 32_769))),
    )
    .unwrap();
    assert_eq!(big.memory_bytes(), 8192);
    assert_eq!(big.tracked(), 2_000_000);

    for size_blocks in [4 * 32768u64, 16 * 32768] {
        for aa_blocks in [2048u64, 32768] {
            let logical = size_blocks / 2;
            let mut agg = Aggregate::new(
                AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: size_blocks / 2,
                    profile: MediaProfile::hdd(),
                }),
                &[(
                    FlexVolConfig {
                        size_blocks,
                        aa_cache: true,
                        aa_blocks: Some(aa_blocks),
                    },
                    logical,
                )],
                5,
            )
            .unwrap();
            aging::fill_volume(&mut agg, VolumeId(0), 8192).unwrap();
            aging::random_overwrite_churn(&mut agg, VolumeId(0), logical, 8192, 6).unwrap();
            let ctx = format!("{size_blocks}-block volume, {aa_blocks}-block AAs");
            let vol = &agg.volumes()[0];
            let cache = vol.cache().expect("the volume's AA cache is on");
            assert_eq!(cache.memory_bytes(), 8192, "{ctx}");
            assert_eq!(cache.hbps().tracked(), size_blocks / aa_blocks, "{ctx}");
            let bitmap = vol.bitmap();
            assert_eq!(bitmap.unit_blocks(), aa_blocks, "{ctx}: one counter per AA");
            assert_eq!(
                bitmap.unit_free_counts().len() as u64,
                size_blocks / aa_blocks,
                "{ctx}"
            );
            let scores = vol.topology().all_scores(bitmap);
            let counters = bitmap.unit_free_counts().iter().map(|&c| u32::from(c));
            assert!(
                scores.iter().map(|&(_, s)| s.get()).eq(counters),
                "{ctx}: every AA score is its counter"
            );
        }
    }
}

/// §3.3.2: the error margin of the default configuration is 3.125 %.
#[test]
fn hbps_error_margin_is_3_125_percent() {
    assert!((HbpsConfig::default().error_margin() - 0.03125).abs() < 1e-12);
}

/// §2: sustaining 1 GiB/s of overwrites means finding 256 Ki free blocks
/// per second. The AA-cache query path must be orders of magnitude faster
/// than that budget (~4 µs per block).
#[test]
fn free_block_search_meets_the_gibps_budget() {
    let mut hbps = Hbps::build(
        HbpsConfig::default(),
        (0..1_000_000u32).map(|i| (AaId(i), AaScore((i * 31) % 32_769))),
    )
    .unwrap();
    let t = std::time::Instant::now();
    let mut picks = 0u64;
    for _ in 0..256 {
        // One pick hands out an AA worth ~32 Ki blocks.
        if hbps.take_best().is_some() {
            picks += 1;
        }
    }
    let per_block_ns = t.elapsed().as_nanos() as f64 / (picks as f64 * 32_768.0);
    assert!(
        per_block_ns < 4_000.0,
        "AA selection costs {per_block_ns:.1} ns per block of budget"
    );
}

/// §2.2/§4.1: random overwrites fragment free space; the caches keep
/// finding regions emptier than the aggregate average anyway.
#[test]
fn caches_beat_average_on_aged_systems() {
    let mut agg = Aggregate::new(
        AggregateConfig::single_group(RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 16 * 4096,
            profile: MediaProfile::hdd(),
        }),
        &[(
            FlexVolConfig {
                size_blocks: 8 * 32768,
                aa_cache: true,
                aa_blocks: Some(4096),
            },
            120_000,
        )],
        55,
    )
    .unwrap();
    aging::fill_volume(&mut agg, VolumeId(0), 4096).unwrap();
    aging::random_overwrite_churn(&mut agg, VolumeId(0), 240_000, 4096, 56).unwrap();
    let mut w = RandomOverwrite::new(VolumeId(0), 120_000, 57);
    let stats = run(&mut agg, &mut w, 40_000, 4096).unwrap();
    let avg_free = agg.free_fraction();
    let picked = stats.cp.agg_pick_free_mean();
    assert!(
        picked > avg_free + 0.03,
        "cache picks {picked:.3} should beat the aggregate average {avg_free:.3}"
    );
}

/// §3.2.2: clustered (AA-style) overwrite streams yield lower FTL write
/// amplification than scattered ones on the same device — the raw media
/// mechanism behind Figures 6 and 8.
#[test]
fn clustered_invalidation_lowers_write_amplification() {
    let n = 64 * 256u32;
    let mut clustered = SsdFtl::new(n, 64, 0.07).unwrap();
    let mut scattered = SsdFtl::new(n, 64, 0.07).unwrap();
    for lpn in 0..n {
        clustered.host_write(lpn).unwrap();
        scattered.host_write(lpn).unwrap();
    }
    clustered.reset_stats();
    scattered.reset_stats();
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    // Clustered: rewrite whole 1024-page segments in random order.
    let mut segs: Vec<u32> = (0..n / 1024).collect();
    for _ in 0..4 {
        segs.shuffle(&mut rng);
        for &s in &segs {
            for off in 0..1024 {
                clustered.host_write(s * 1024 + off).unwrap();
            }
        }
    }
    // Scattered: the same volume of uniform random single-page writes.
    for _ in 0..4 * n as u64 {
        scattered.host_write(rng.random_range(0..n)).unwrap();
    }
    assert!(
        clustered.write_amplification() + 0.3 < scattered.write_amplification(),
        "clustered WA {} vs scattered {}",
        clustered.write_amplification(),
        scattered.write_amplification()
    );
}

/// §3.4: TopAA mount cost is O(groups + volumes), not O(capacity).
#[test]
fn topaa_cost_independent_of_capacity() {
    use wafl_repro::fs::mount;
    let build = |device_blocks: u64| {
        Aggregate::new(
            AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks,
                profile: MediaProfile::hdd(),
            }),
            &[(
                FlexVolConfig {
                    size_blocks: 4 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1000,
            )],
            1,
        )
        .unwrap()
    };
    let mut small = build(8 * 4096);
    let mut large = build(128 * 4096);
    let si = mount::save_topaa(&small);
    let li = mount::save_topaa(&large);
    mount::crash(&mut small);
    mount::crash(&mut large);
    let s = mount::mount_with_topaa(&mut small, &si).unwrap();
    let l = mount::mount_with_topaa(&mut large, &li).unwrap();
    assert_eq!(s.metafile_blocks_read, l.metafile_blocks_read);
    let sc = {
        mount::crash(&mut small);
        mount::mount_cold(&mut small).unwrap()
    };
    let lc = {
        mount::crash(&mut large);
        mount::mount_cold(&mut large).unwrap()
    };
    assert!(lc.metafile_blocks_read > 10 * sc.metafile_blocks_read / 2);
}
