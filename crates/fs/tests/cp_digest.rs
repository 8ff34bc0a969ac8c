//! Golden `CpStats` digests: the CP's control flow, pinned.
//!
//! `oracle_parity.rs` checks what each CP did block by block — layout,
//! mappings, costing, cache scores — but not the allocator's own counters
//! (blocks examined, picks and their free fractions, cursor hits and
//! misses, replenish pages) or the `cpu_us` modelled from them: those
//! count how the planner searched, which has no per-block definition.
//! Each test below drives one small seeded geometry for a fixed number of
//! CPs and folds every `CpStats` field but `wall` (measured time), every
//! crash outcome and the end-state free counts into one FNV-1a digest.
//! The first five cover paths the parity geometries never reach (force-
//! drained batched frees, rg back-off, an object-store group, a
//! cache-less volume, crash + `mount_auto` cycles); their constants were
//! recorded at commit 41a84bb, before `run_cp_inner` was split into
//! stages. The two `parity_*` tests run the parity geometries with the
//! same seeds and rounds; their constants were recorded at commit
//! 4166327, where the parity suite still compared these counters with a
//! transcription of the planner. Three were re-pinned when each CP began
//! keeping the client's last op on a block: the `parity_*` draws and
//! `volume_without_aa_cache`'s deletes hit logicals the same CP writes.
//! `batched_frees_near_full_force_drain` was re-pinned when a shortfall
//! retry began ranking again the AAs earlier rounds drained, and again
//! when the force-drain moved ahead of the CP's first planning round
//! (round 0 now plans with the blocks the drain freed).
//! `ssd_groups_batched_frees`, the one geometry on SSDs, was recorded at
//! commit 1d95e9f, before the FTL's collector began resolving a victim's
//! pages ahead of moving them. `odd_geometry_overwrites_and_deletes` and
//! `ssd_group_immediate_frees_trimmed`, the one geometry with
//! `trim_on_free`, were recorded at commit 293f50e, while a CP still
//! sorted its frees before applying them. A change that moves a constant
//! is a change in what a CP does.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_faults::CrashSite;
use wafl_fs::mount;
use wafl_fs::{
    Aggregate, AggregateConfig, CpOutcome, CpStats, FlexVolConfig, RaidGroupSpec, RgCpStats,
};
use wafl_media::MediaProfile;
use wafl_types::VolumeId;

/// FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Every field but `wall`; the destructuring stops compiling when a
    /// field is added, so the digest cannot silently miss it.
    fn cp(&mut self, s: &CpStats) {
        let CpStats {
            cp_index,
            ops,
            blocks_written,
            metafile_pages,
            per_rg,
            media_us,
            media_us_total,
            cpu_us,
            cache_maintenance_us,
            blocks_examined,
            agg_picks,
            agg_pick_free_sum,
            vol_picks,
            vol_pick_free_sum,
            replenish_pages,
            delayed_frees_applied,
            delayed_free_pages,
            cursor_hits,
            cursor_misses,
            wall: _,
        } = s;
        for x in [
            cp_index,
            ops,
            blocks_written,
            metafile_pages,
            blocks_examined,
            agg_picks,
            vol_picks,
            replenish_pages,
            delayed_frees_applied,
            delayed_free_pages,
            cursor_hits,
            cursor_misses,
        ] {
            self.u64(*x);
        }
        for x in [
            media_us,
            media_us_total,
            cpu_us,
            cache_maintenance_us,
            agg_pick_free_sum,
            vol_pick_free_sum,
        ] {
            self.f64(*x);
        }
        self.u64(per_rg.len() as u64);
        for rg in per_rg {
            let RgCpStats {
                blocks,
                tetrises,
                full_stripes,
                partial_stripes,
                parity_reads,
                parity_writes,
                per_device_blocks,
                per_device_chains,
                media_us,
            } = rg;
            for x in [
                blocks,
                tetrises,
                full_stripes,
                partial_stripes,
                parity_reads,
                parity_writes,
            ] {
                self.u64(*x);
            }
            for x in per_device_blocks.iter().chain(per_device_chains) {
                self.u64(*x);
            }
            self.f64(*media_us);
        }
    }

    /// A CP's outcome: its stats, or where it crashed.
    fn outcome(&mut self, o: &CpOutcome) {
        match o {
            CpOutcome::Completed(s) => self.cp(s),
            CpOutcome::Crashed(site) => {
                self.u64(u64::MAX);
                self.u64(match site {
                    CrashSite::AfterBlockWrites(n) => *n,
                    CrashSite::AfterBind => 1 << 40,
                    CrashSite::MidFreeLogApply(n) => (2 << 40) + n,
                    CrashSite::BeforeTopAaPersist => 3 << 40,
                    CrashSite::AfterTopAaPersist => 4 << 40,
                });
            }
        }
    }

    /// The end state: free blocks in both VBN spaces and the log backlog.
    fn finish(mut self, a: &Aggregate) -> u64 {
        self.u64(a.cp_count());
        self.u64(a.bitmap().free_blocks());
        for v in a.volumes() {
            self.u64(v.free_blocks());
        }
        self.u64(a.free_log().pending());
        self.0
    }
}

fn hdd_group(data_devices: u32, device_blocks: u64) -> RaidGroupSpec {
    RaidGroupSpec {
        data_devices,
        parity_devices: 1,
        device_blocks,
        profile: MediaProfile::hdd(),
    }
}

fn vol(size_blocks: u64, aa_cache: bool) -> FlexVolConfig {
    FlexVolConfig {
        size_blocks,
        aa_cache,
        aa_blocks: None,
    }
}

/// Queue `ops` overwrites of `vol`, uniform over `0..logical`.
fn overwrite(a: &mut Aggregate, rng: &mut StdRng, vol: u32, logical: u64, ops: usize) {
    for _ in 0..ops {
        a.client_overwrite(VolumeId(vol), rng.random_range(0..logical))
            .unwrap();
    }
}

/// Write `logical` blocks of `vol` sequentially, `per_cp` to a CP.
fn fill(a: &mut Aggregate, d: &mut Digest, vol: u32, logical: u64, per_cp: u64) {
    for start in (0..logical).step_by(per_cp as usize) {
        for l in start..(start + per_cp).min(logical) {
            a.client_overwrite(VolumeId(vol), l).unwrap();
        }
        d.cp(&a.run_cp().unwrap());
    }
}

/// Two unlike HDD groups, 4 + 1 and 6 + 2.
fn two_unlike_groups() -> AggregateConfig {
    AggregateConfig {
        raid_groups: vec![
            hdd_group(4, 8 * 4096),
            RaidGroupSpec {
                parity_devices: 2,
                ..hdd_group(6, 8 * 4096)
            },
        ],
        ..AggregateConfig::single_group(hdd_group(4, 8 * 4096))
    }
}

/// Queue one parity-workload CP: `ops` are (volume, logical, delete?)
/// draws, queued in draw order.
fn parity_cp(a: &mut Aggregate, ops: &[(u32, u64, bool)]) {
    for &(v, l, del) in ops {
        if del {
            a.client_delete(VolumeId(v), l).unwrap();
        } else {
            a.client_overwrite(VolumeId(v), l).unwrap();
        }
    }
}

/// `oracle_parity.rs`'s one group + one volume: `rounds` CPs of 2 500
/// draws, one in ten a delete.
fn parity_one_group(seed: u64, rounds: usize) -> (Aggregate, Digest) {
    const LOGICAL: u64 = 50_000;
    let mut a = Aggregate::new(
        AggregateConfig::single_group(hdd_group(4, 16 * 4096)),
        &[(vol(8 * 32768, true), LOGICAL)],
        1,
    )
    .unwrap();
    let mut d = Digest::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..rounds {
        let ops: Vec<_> = (0..2500)
            .map(|_| {
                let l = rng.random_range(0..LOGICAL);
                (0, l, rng.random_range(0..10u32) == 0)
            })
            .collect();
        parity_cp(&mut a, &ops);
        d.cp(&a.run_cp().unwrap());
    }
    (a, d)
}

#[test]
fn parity_one_group_one_volume() {
    let (a, d) = parity_one_group(7, 6);
    assert_eq!(d.finish(&a), 0xda51_5d7f_50e2_36bb);
}

/// `oracle_parity.rs`'s two unlike groups under two volumes: five CPs of
/// 3 000 draws, one in twelve a delete.
#[test]
fn parity_two_groups_two_volumes() {
    const VOLS: [(u64, u64); 2] = [(4 * 32768, 20_000), (2 * 32768, 10_000)];
    let mut a = Aggregate::new(
        two_unlike_groups(),
        &VOLS.map(|(size, logical)| (vol(size, true), logical)),
        1,
    )
    .unwrap();
    let mut d = Digest::new();
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..5 {
        let ops: Vec<_> = (0..3000)
            .map(|_| {
                let v = rng.random_range(0..2u32);
                let l = rng.random_range(0..VOLS[v as usize].1);
                (v, l, rng.random_range(0..12u32) == 0)
            })
            .collect();
        parity_cp(&mut a, &ops);
        d.cp(&a.run_cp().unwrap());
    }
    assert_eq!(d.finish(&a), 0x9f37_b2d4_fedf_70fc);
}

/// Same ops twice give the same digest, and the same physical page free
/// counts: nothing in a CP depends on the host, the thread schedule or a
/// per-process hash seed. Four volumes over two unlike groups, so every
/// per-volume and per-group loop of the CP goes round more than once.
#[test]
fn same_ops_twice_give_the_same_digest() {
    let drive = || {
        let mut a =
            Aggregate::new(two_unlike_groups(), &[(vol(2 * 32768, true), 50_000); 4], 1).unwrap();
        let mut d = Digest::new();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4 {
            for _ in 0..2500 {
                let v = rng.random_range(0..4u32);
                overwrite(&mut a, &mut rng, v, 50_000, 1);
            }
            d.cp(&a.run_cp().unwrap());
        }
        for &c in a.bitmap().unit_free_counts() {
            d.u64(c.into());
        }
        d.finish(&a)
    };
    assert_eq!(drive(), drive());
    let (a, d) = parity_one_group(99, 4);
    let (b, e) = parity_one_group(99, 4);
    assert_eq!(d.finish(&a), e.finish(&b));
}

/// One heap-cached group at ~95 % full with batched frees and one log page per CP:
/// the allocator runs dry every few CPs and force-drains the log.
#[test]
fn batched_frees_near_full_force_drain() {
    const LOGICAL: u64 = 250_000;
    let mut a = Aggregate::new(
        AggregateConfig {
            batched_frees: true,
            free_pages_per_cp: 1,
            ..AggregateConfig::single_group(hdd_group(2, 32 * 4096))
        },
        &[(vol(8 * 32768, true), LOGICAL)],
        8,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4096);
    let mut rng = StdRng::seed_from_u64(5);
    let mut force_drains = 0;
    for _ in 0..20 {
        overwrite(&mut a, &mut rng, 0, LOGICAL, 4096);
        let s = a.run_cp().unwrap();
        force_drains += (s.delayed_free_pages > 1) as u32;
        d.cp(&s);
    }
    assert!(force_drains > 0, "the run must force-drain");
    assert_eq!(d.finish(&a), 0x1086_70e1_6830_2cc4);
}

/// Two groups under `rg_backoff_threshold = 0.9`, one of them half full
/// from the start: the quotas back off from it until the other's best AA
/// falls under the threshold too, and from then on each CP splits its
/// writes evenly between them. Both groups meet their shares: no CP of
/// this run needs a planning round past round 0.
#[test]
fn two_groups_under_backoff() {
    const LOGICAL: u64 = 60_000;
    let spec = hdd_group(2, 4 * 4096);
    let mut a = Aggregate::new(
        AggregateConfig {
            raid_groups: vec![spec.clone(), spec.clone()],
            rg_backoff_threshold: 0.9,
            ..AggregateConfig::single_group(spec)
        },
        &[(vol(2 * 32768, true), LOGICAL)],
        7,
    )
    .unwrap();
    wafl_fs::aging::seed_rg_random_occupancy(&mut a, 1, 0.5, 123).unwrap();
    let mut d = Digest::new();
    const WRITTEN: u64 = 36_000;
    fill(&mut a, &mut d, 0, WRITTEN, 2048);
    let mut rng = StdRng::seed_from_u64(9);
    for _ in 0..8 {
        overwrite(&mut a, &mut rng, 0, WRITTEN, 2048);
        d.cp(&a.run_cp().unwrap());
    }
    assert_eq!(d.finish(&a), 0xdc15_c0ea_0082_1162);
}

/// A natively redundant (object-store) range: the group ranks its AAs
/// with a volume's cache, the two-page HBPS, replenished from the bitmap
/// on a pick miss and at the CP boundary.
#[test]
fn object_store_group() {
    const LOGICAL: u64 = 50_000;
    let mut a = Aggregate::new(
        AggregateConfig::single_group(RaidGroupSpec {
            data_devices: 1,
            parity_devices: 0,
            device_blocks: 16 * 4096,
            profile: MediaProfile::object_store(),
        }),
        &[(vol(4 * 32768, true), LOGICAL)],
        0,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4096);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..12 {
        overwrite(&mut a, &mut rng, 0, LOGICAL, 4096);
        d.cp(&a.run_cp().unwrap());
    }
    assert_eq!(d.finish(&a), 0xb8fd_8c70_e73e_7f07);
}

/// A cache-less volume (random virtual AA picks) beside a cache-guided
/// one, with queued deletes riding every CP, then one empty CP.
#[test]
fn volume_without_aa_cache() {
    const LOGICAL: u64 = 20_000;
    let mut a = Aggregate::new(
        AggregateConfig::single_group(hdd_group(4, 16 * 4096)),
        &[
            (vol(2 * 32768, false), LOGICAL),
            (vol(2 * 32768, true), LOGICAL),
        ],
        4,
    )
    .unwrap();
    let mut d = Digest::new();
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..16 {
        for v in 0..2 {
            overwrite(&mut a, &mut rng, v, LOGICAL, 1500);
            for _ in 0..200 {
                a.client_delete(VolumeId(v), rng.random_range(0..LOGICAL))
                    .unwrap();
            }
        }
        d.cp(&a.run_cp().unwrap());
    }
    d.cp(&a.run_cp().unwrap());
    assert_eq!(d.finish(&a), 0x449f_56bf_b827_a718);
}

/// Two SSD 4 + 1 groups under two volumes with batched frees: a fill to
/// ~85 %, then overwrites and deletes until every device has been
/// written end to end and its FTL collects garbage. The only digest whose
/// CPs write through `SsdFtl` — its relocations and erases reach
/// `media_us` — so the end-state write amplification is folded in too.
#[test]
fn ssd_groups_batched_frees() {
    const LOGICAL: u64 = 110_000;
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: 8 * 4096,
        profile: MediaProfile::ssd(),
    };
    let mut a = Aggregate::new(
        AggregateConfig {
            raid_groups: vec![spec.clone(), spec.clone()],
            batched_frees: true,
            ..AggregateConfig::single_group(spec)
        },
        &[(vol(4 * 32768, true), LOGICAL); 2],
        6,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4096);
    fill(&mut a, &mut d, 1, LOGICAL, 4096);
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..40 {
        for v in 0..2 {
            overwrite(&mut a, &mut rng, v, LOGICAL, 1500);
            for _ in 0..300 {
                a.client_delete(VolumeId(v), rng.random_range(0..LOGICAL))
                    .unwrap();
            }
        }
        d.cp(&a.run_cp().unwrap());
    }
    let wa = a.mean_write_amplification();
    assert!(
        wa > 1.0,
        "the run must make the FTLs collect garbage: WA {wa}"
    );
    d.f64(wa);
    assert_eq!(d.finish(&a), 0xe654_a9b5_cbf0_a234);
}

/// Two groups and two volumes with batched frees and the runtime
/// scrubber on, cut short at every crash site in turn; each crash is
/// followed by `mount_auto` from the last saved TopAA image and the
/// background rebuild.
#[test]
fn crash_and_mount_auto_cycles() {
    const LOGICAL: u64 = 20_000;
    let spec = hdd_group(4, 8 * 4096);
    let mut a = Aggregate::new(
        AggregateConfig {
            raid_groups: vec![spec.clone(), spec.clone()],
            batched_frees: true,
            free_pages_per_cp: 2,
            scrub_pages_per_cp: 2,
            ..AggregateConfig::single_group(spec)
        },
        &[
            (vol(2 * 32768, true), LOGICAL),
            (vol(2 * 32768, true), LOGICAL),
        ],
        3,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4096);
    fill(&mut a, &mut d, 1, LOGICAL, 4096);
    let mut rng = StdRng::seed_from_u64(13);
    let sites = [
        CrashSite::AfterBlockWrites(700),
        CrashSite::AfterBind,
        CrashSite::MidFreeLogApply(300),
        CrashSite::BeforeTopAaPersist,
        CrashSite::AfterTopAaPersist,
    ];
    for site in sites {
        for _ in 0..2 {
            for v in 0..2 {
                overwrite(&mut a, &mut rng, v, LOGICAL, 1500);
            }
            d.cp(&a.run_cp().unwrap());
        }
        let image = mount::save_topaa(&a);
        for v in 0..2 {
            overwrite(&mut a, &mut rng, v, LOGICAL, 1500);
        }
        d.outcome(&a.run_cp_with_faults(Some(site)).unwrap());
        mount::crash(&mut a);
        let m = mount::mount_auto(&mut a, &image);
        d.u64(m.degraded.len() as u64);
        mount::complete_background_rebuild(&mut a).unwrap();
        d.cp(&a.run_cp().unwrap());
    }
    assert_eq!(d.finish(&a), 0x6d71_ff49_b99f_aee7);
}

/// Nothing a power of two: two HDD groups of 1 000 × k-block devices
/// (3 + 1 × 37 000 and 5 + 1 × 23 000) cut into 3 000-stripe AAs by
/// `aa_policy_override`, so each group ends in a short AA, under two
/// volumes of 7 008-block AAs (not a multiple of a 64-bit word) whose
/// last AA is short too; random overwrites with deletes.
#[test]
fn odd_geometry_overwrites_and_deletes() {
    const LOGICAL: u64 = 60_000;
    let mut a = Aggregate::new(
        AggregateConfig {
            raid_groups: vec![hdd_group(3, 37_000), hdd_group(5, 23_000)],
            aa_policy_override: Some(wafl_types::AaSizingPolicy::Stripes { stripes: 3000 }),
            ..AggregateConfig::single_group(hdd_group(3, 37_000))
        },
        &[(
            FlexVolConfig {
                aa_blocks: Some(7008),
                ..vol(100_000, true)
            },
            LOGICAL,
        ); 2],
        11,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4000);
    fill(&mut a, &mut d, 1, LOGICAL, 4000);
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..20 {
        for v in 0..2 {
            overwrite(&mut a, &mut rng, v, LOGICAL, 2500);
            for _ in 0..250 {
                a.client_delete(VolumeId(v), rng.random_range(0..LOGICAL))
                    .unwrap();
            }
        }
        d.cp(&a.run_cp().unwrap());
    }
    assert_eq!(d.finish(&a), 0xe789_b22e_bc5d_fad2);
}

/// One SSD 4 + 1 group with immediate frees and `trim_on_free`: every
/// CP's physical frees reach the FTL as TRIMs in the order the CP frees
/// them. TRIMs feed no `CpStats` field but change what the collector
/// relocates, so the end-state write amplification is folded in.
#[test]
fn ssd_group_immediate_frees_trimmed() {
    const LOGICAL: u64 = 100_000;
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: 8 * 4096,
        profile: MediaProfile::ssd(),
    };
    let mut a = Aggregate::new(
        AggregateConfig {
            trim_on_free: true,
            ..AggregateConfig::single_group(spec)
        },
        &[(vol(4 * 32768, true), LOGICAL)],
        2,
    )
    .unwrap();
    let mut d = Digest::new();
    fill(&mut a, &mut d, 0, LOGICAL, 4096);
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..40 {
        overwrite(&mut a, &mut rng, 0, LOGICAL, 3000);
        for _ in 0..300 {
            a.client_delete(VolumeId(0), rng.random_range(0..LOGICAL))
                .unwrap();
        }
        d.cp(&a.run_cp().unwrap());
    }
    let wa = a.mean_write_amplification();
    assert!(
        wa > 1.0,
        "the run must make the FTL collect garbage: WA {wa}"
    );
    d.f64(wa);
    assert_eq!(d.finish(&a), 0x917c_bc19_3e7f_cef0);
}
