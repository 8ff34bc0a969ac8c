//! Oracle parity: the production pipeline versus the frozen sequential
//! reference planner in `wafl-oracle`.
//!
//! The oracle is a verbatim transcription of the retired per-block
//! pipeline — per-block bind, per-block frees, per-block costing —
//! validated bit-for-bit against that code before it was deleted. These
//! tests keep the production pipeline pinned to it:
//!
//! * physical and virtual layout match page for page;
//! * logical→virtual mappings are identical;
//! * per-group media costing is f64-bit-identical (run-interval
//!   analysis vs the oracle's per-block analysis);
//! * the allocator's counters — blocks examined, replenish pages, cursor
//!   hits and misses — and the modelled CPU time built on them are
//!   identical, so the two cannot come to count the same work
//!   differently.
//!
//! The `#[ignore]`d seed sweep is the `scripts/ci.sh --oracle-parity`
//! gate: a release-mode sweep over seeds with zero diffs allowed.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_oracle::{OracleAggregate, OracleRaidGroupSpec, OracleVolSpec};
use wafl_types::{Vbn, VolumeId};

const LOGICALS: u64 = 50_000;

fn agg() -> Aggregate {
    Aggregate::new(
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
                aa_blocks: None,
            },
            LOGICALS,
        )],
        1,
    )
    .unwrap()
}

fn oracle() -> OracleAggregate {
    OracleAggregate::new(
        &[OracleRaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 16 * 4096,
        }],
        &[(
            OracleVolSpec {
                size_blocks: 8 * 32768,
                aa_blocks: None,
            },
            LOGICALS,
        )],
    )
    .unwrap()
}

/// Ownership: `wafl-fs` keeps no owner table; who owns a pvbn is the
/// vvbn its volume maps point at it. That derived view must equal the
/// table the oracle maintains per block, for every pvbn — an owner for
/// every set bit, none for a free one.
fn assert_owner_parity(agg: &Aggregate, orc: &OracleAggregate, ctx: &str) {
    let mut derived = vec![None; agg.bitmap().space_len() as usize];
    for vol in agg.volumes() {
        for vvbn in (0..vol.size_blocks()).map(Vbn) {
            if let Some(pvbn) = vol.lookup_vvbn(vvbn) {
                let displaced = derived[pvbn.index()].replace((vol.id, vvbn));
                assert_eq!(displaced, None, "{ctx}: two vvbns reference {pvbn}");
            }
        }
    }
    for (i, owner) in derived.iter().enumerate() {
        let pvbn = Vbn(i as u64);
        assert_eq!(*owner, orc.owner_of(pvbn), "{ctx}: owner of {pvbn}");
        assert_eq!(
            owner.is_some(),
            !agg.bitmap().is_free(pvbn).unwrap(),
            "{ctx}: {pvbn} allocated without an owner, or owned while free"
        );
    }
}

/// Drive both planners through the identical workload and assert full
/// parity after every CP.
fn assert_parity(agg: &mut Aggregate, orc: &mut OracleAggregate, seed: u64, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..rounds {
        let ops: Vec<(u64, bool)> = (0..2500)
            .map(|_| {
                (
                    rng.random_range(0..LOGICALS),
                    rng.random_range(0..10u32) == 0,
                )
            })
            .collect();
        for &(l, del) in &ops {
            if del {
                agg.client_delete(VolumeId(0), l).unwrap();
                orc.client_delete(VolumeId(0), l).unwrap();
            } else {
                agg.client_overwrite(VolumeId(0), l).unwrap();
                orc.client_overwrite(VolumeId(0), l).unwrap();
            }
        }
        let sa = agg.run_cp().unwrap();
        let so = orc.run_cp().unwrap();

        // Physical layout: page-exact.
        assert_eq!(
            agg.bitmap().free_blocks(),
            orc.bitmap().free_blocks(),
            "seed {seed} round {round}: physical free blocks diverge"
        );
        assert_eq!(
            agg.bitmap().page_free_counts(),
            orc.bitmap().page_free_counts(),
            "seed {seed} round {round}: physical page counts diverge"
        );
        // Virtual layout and mappings: bit-identical.
        let av = &agg.volumes()[0];
        let ov = &orc.volumes()[0];
        assert_eq!(
            av.free_blocks(),
            ov.free_blocks(),
            "seed {seed} round {round}"
        );
        assert_eq!(
            av.bitmap().page_free_counts(),
            ov.bitmap().page_free_counts(),
            "seed {seed} round {round}"
        );
        for l in 0..LOGICALS {
            assert_eq!(
                av.lookup_logical(l).map(|v| v.get()),
                ov.lookup_logical(l).map(|v| v.get()),
                "seed {seed} round {round}: logical {l} maps diverge"
            );
        }
        // Costing: f64-bit-identical per-group stats.
        assert_eq!(sa.per_rg.len(), so.per_rg.len());
        for (a, b) in sa.per_rg.iter().zip(&so.per_rg) {
            assert_eq!(a.blocks, b.blocks, "seed {seed} round {round}");
            assert_eq!(a.tetrises, b.tetrises, "seed {seed} round {round}");
            assert_eq!(a.full_stripes, b.full_stripes, "seed {seed} round {round}");
            assert_eq!(
                a.partial_stripes, b.partial_stripes,
                "seed {seed} round {round}"
            );
            assert_eq!(a.parity_reads, b.parity_reads, "seed {seed} round {round}");
            assert_eq!(
                a.parity_writes, b.parity_writes,
                "seed {seed} round {round}"
            );
            assert_eq!(
                a.per_device_blocks, b.per_device_blocks,
                "seed {seed} round {round}"
            );
            assert_eq!(
                a.per_device_chains, b.per_device_chains,
                "seed {seed} round {round}"
            );
            assert_eq!(
                a.media_us.to_bits(),
                b.media_us.to_bits(),
                "seed {seed} round {round}"
            );
        }
        assert_eq!(sa.ops, so.ops, "seed {seed} round {round}");
        assert_owner_parity(agg, orc, &format!("seed {seed} round {round}"));
        // Pick statistics: fresh claims only, whichever planner ran.
        assert_eq!(sa.agg_picks, so.agg_picks, "seed {seed} round {round}");
        assert_eq!(sa.vol_picks, so.vol_picks, "seed {seed} round {round}");
        // ... and the free fractions they were claimed at, summed in the
        // same order.
        assert_eq!(
            sa.agg_pick_free_sum.to_bits(),
            so.agg_pick_free_sum.to_bits(),
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.vol_pick_free_sum.to_bits(),
            so.vol_pick_free_sum.to_bits(),
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.metafile_pages, so.metafile_pages,
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.media_us.to_bits(),
            so.media_us.to_bits(),
            "seed {seed} round {round}"
        );
        // The allocator's counters and the modelled CPU time they feed.
        assert_eq!(
            sa.blocks_examined, so.blocks_examined,
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.replenish_pages, so.replenish_pages,
            "seed {seed} round {round}"
        );
        assert_eq!(sa.cursor_hits, so.cursor_hits, "seed {seed} round {round}");
        assert_eq!(
            sa.cursor_misses, so.cursor_misses,
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.cache_maintenance_us.to_bits(),
            so.cache_maintenance_us.to_bits(),
            "seed {seed} round {round}"
        );
        assert_eq!(
            sa.cpu_us.to_bits(),
            so.cpu_us.to_bits(),
            "seed {seed} round {round}"
        );
    }
}

#[test]
fn single_group_matches_oracle() {
    assert_parity(&mut agg(), &mut oracle(), 7, 6);
}

#[test]
fn multi_group_multi_vol_matches_oracle() {
    let groups = [
        RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 8 * 4096,
            profile: MediaProfile::hdd(),
        },
        RaidGroupSpec {
            data_devices: 6,
            parity_devices: 2,
            device_blocks: 8 * 4096,
            profile: MediaProfile::hdd(),
        },
    ];
    let mut cfg = AggregateConfig::single_group(groups[0].clone());
    cfg.raid_groups = groups.to_vec();
    let vols = [(4u64 * 32768, 20_000u64), (2 * 32768, 10_000)];
    let mut agg = Aggregate::new(
        cfg,
        &vols
            .iter()
            .map(|&(size, logical)| {
                (
                    FlexVolConfig {
                        size_blocks: size,
                        aa_cache: true,
                        aa_blocks: None,
                    },
                    logical,
                )
            })
            .collect::<Vec<_>>(),
        1,
    )
    .unwrap();
    let mut orc = OracleAggregate::new(
        &[
            OracleRaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 8 * 4096,
            },
            OracleRaidGroupSpec {
                data_devices: 6,
                parity_devices: 2,
                device_blocks: 8 * 4096,
            },
        ],
        &vols
            .iter()
            .map(|&(size, logical)| {
                (
                    OracleVolSpec {
                        size_blocks: size,
                        aa_blocks: None,
                    },
                    logical,
                )
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    for round in 0..5 {
        for _ in 0..3000 {
            let v = rng.random_range(0..2u32);
            let l = rng.random_range(0..vols[v as usize].1);
            if rng.random_range(0..12u32) == 0 {
                agg.client_delete(VolumeId(v), l).unwrap();
                orc.client_delete(VolumeId(v), l).unwrap();
            } else {
                agg.client_overwrite(VolumeId(v), l).unwrap();
                orc.client_overwrite(VolumeId(v), l).unwrap();
            }
        }
        let sa = agg.run_cp().unwrap();
        let so = orc.run_cp().unwrap();
        assert_eq!(
            agg.bitmap().page_free_counts(),
            orc.bitmap().page_free_counts(),
            "round {round}"
        );
        for (av, ov) in agg.volumes().iter().zip(orc.volumes()) {
            assert_eq!(av.free_blocks(), ov.free_blocks(), "round {round}");
            assert_eq!(
                av.bitmap().page_free_counts(),
                ov.bitmap().page_free_counts(),
                "round {round}"
            );
        }
        assert_eq!(sa.per_rg.len(), so.per_rg.len());
        for (a, b) in sa.per_rg.iter().zip(&so.per_rg) {
            assert_eq!(a.per_device_blocks, b.per_device_blocks, "round {round}");
            assert_eq!(a.per_device_chains, b.per_device_chains, "round {round}");
            assert_eq!(a.media_us.to_bits(), b.media_us.to_bits(), "round {round}");
        }
        assert_eq!(sa.blocks_examined, so.blocks_examined, "round {round}");
        assert_eq!(sa.cpu_us.to_bits(), so.cpu_us.to_bits(), "round {round}");
        assert_owner_parity(&agg, &orc, &format!("two volumes, round {round}"));
    }
}

/// Same ops twice give the same file system and the same `CpStats`,
/// every field but the measured `wall`: nothing in a CP depends on the
/// host, the thread schedule or a per-process hash seed.
#[test]
fn same_ops_twice_give_identical_cp_stats() {
    let drive = |make: fn() -> Aggregate| {
        let mut agg = make();
        let vols = agg.volumes().len() as u32;
        let mut rng = StdRng::seed_from_u64(99);
        let stats: Vec<_> = (0..4)
            .map(|_| {
                for _ in 0..2500 {
                    let vol = VolumeId(rng.random_range(0..vols));
                    agg.client_overwrite(vol, rng.random_range(0..LOGICALS))
                        .unwrap();
                }
                wafl_fs::CpStats {
                    wall: Default::default(),
                    ..agg.run_cp().unwrap()
                }
            })
            .collect();
        (stats, agg.bitmap().page_free_counts().to_vec())
    };
    for make in [agg, four_vols_two_groups] {
        assert_eq!(drive(make), drive(make));
    }
}

/// Four volumes over two unlike groups: every per-volume and per-group
/// loop of the CP goes round more than once.
fn four_vols_two_groups() -> Aggregate {
    let group = |data_devices, parity_devices| RaidGroupSpec {
        data_devices,
        parity_devices,
        device_blocks: 8 * 4096,
        profile: MediaProfile::hdd(),
    };
    let vol = (
        FlexVolConfig {
            size_blocks: 2 * 32768,
            aa_cache: true,
            aa_blocks: None,
        },
        LOGICALS,
    );
    Aggregate::new(
        AggregateConfig {
            raid_groups: vec![group(4, 1), group(6, 2)],
            ..AggregateConfig::single_group(group(4, 1))
        },
        &[vol; 4],
        1,
    )
    .unwrap()
}

/// `write_shards` selected a planner once; there is one planner now and
/// the field is fixed at 1 until the benchmark stops printing it.
#[test]
fn write_shards_other_than_one_is_rejected() {
    for shards in [0, 2] {
        let result = Aggregate::new(
            AggregateConfig {
                write_shards: shards,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(FlexVolConfig::default(), 1024)],
            1,
        );
        assert!(matches!(
            result,
            Err(wafl_types::WaflError::InvalidConfig { .. })
        ));
    }
}

/// The `scripts/ci.sh --oracle-parity` gate: a seed sweep, zero diffs
/// allowed. Release-only (ignored by the default test run).
#[test]
#[ignore = "release-mode CI gate: run via scripts/ci.sh --oracle-parity"]
fn oracle_parity_seed_sweep() {
    for seed in [1u64, 3, 17, 99, 123, 1024] {
        assert_parity(&mut agg(), &mut oracle(), seed, 4);
    }
}
