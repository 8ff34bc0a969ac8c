//! Just-in-time segment cleaning of top-of-heap allocation areas
//! (§3.3.1).
//!
//! WAFL "improves AA scores through a process similar to segment cleaning,
//! in which the content of all in-use blocks in an entire allocation area
//! is relocated elsewhere on storage in order to generate completely empty
//! AAs. ... Cleaning AAs with the best scores implies the relocation of
//! the fewest in-use blocks, so just-in-time cleaning of AAs provided by
//! the AA cache yields the best return on investment."
//!
//! The paper defers full details to a future publication; this module
//! implements the described mechanism: take AAs from the top of the
//! max-heap, move their live blocks into other AAs (updating the owning
//! volume's virtual→physical map), and return them to the heap empty.

use crate::aggregate::{pack_owner, unpack_owner, Aggregate, GroupCache, OWNER_NONE, OWNER_ORPHAN};
use crate::allocator::{plan_raid_group, AllocatorMode};
use serde::{Deserialize, Serialize};
use wafl_types::{Vbn, WaflError, WaflResult};

/// Results of a cleaning pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CleaningStats {
    /// AAs emptied.
    pub aas_cleaned: u64,
    /// Live blocks relocated (the cleaning cost the §3.3.1 best-score
    /// policy minimizes).
    pub blocks_relocated: u64,
}

/// Clean up to `count` AAs from the top of `rg_index`'s max-heap. Each
/// cleaned AA has every live block relocated to other AAs of the same
/// group and re-enters the heap completely empty.
///
/// Returns an error if the group has no AA cache (cleaning is driven by
/// the heap) or not enough free space elsewhere to absorb the live blocks.
pub fn clean_top_aas(
    agg: &mut Aggregate,
    rg_index: usize,
    count: usize,
) -> WaflResult<CleaningStats> {
    let mut stats = CleaningStats::default();
    for _ in 0..count {
        let (aa, ranges, aa_blocks) = {
            let g = &mut agg.groups[rg_index];
            let cache = match g.cache.as_mut() {
                Some(GroupCache::Heap(h)) => h,
                _ => {
                    return Err(WaflError::InvalidConfig {
                        reason: "segment cleaning requires the RAID-aware \
                                 max-heap cache (object stores garbage-collect \
                                 internally)"
                            .into(),
                    })
                }
            };
            let Some((aa, _score)) = cache.take_best() else {
                break;
            };
            (
                aa,
                g.topology.aa_vbn_ranges(aa),
                g.topology.aa_blocks(aa) as u32,
            )
        };
        // Live blocks of the AA.
        let mut live: Vec<Vbn> = Vec::new();
        for (start, len) in &ranges {
            for v in start.get()..start.get() + len {
                if !agg.bitmap.is_free(Vbn(v))? {
                    live.push(Vbn(v));
                }
            }
        }
        // Destinations from the same group's remaining AAs (the cleaned AA
        // is off the heap, so the planner cannot pick it), claimed in the
        // bitmap and recorded in the group's batch as they are found. The
        // batch is empty here (a CP applies it at its boundary, this loop
        // at the end of its body), so it holds this claim and nothing else.
        debug_assert!(agg.groups[rg_index].batch.is_empty());
        let plan = plan_raid_group(
            &mut agg.groups[rg_index],
            &mut agg.bitmap,
            live.len(),
            AllocatorMode::CacheGuided,
            0xC1EA_u64 ^ aa.get() as u64,
            agg.cfg.pick_audit_sample,
        )?;
        if plan.vbns.len() < live.len() {
            // Not enough room elsewhere: give the claimed blocks back, drop
            // their batch entries, put every AA back and stop.
            for &(start, len) in &plan.runs {
                agg.bitmap.free_run(start, len)?;
            }
            agg.bitmap.take_dirty_stats();
            let g = &mut agg.groups[rg_index];
            let _ = g.batch.drain().count();
            let score = g.topology.score_from_bitmap(&agg.bitmap, aa);
            if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
                cache.insert(aa, score)?;
                for &drained in &plan.drained {
                    let s = g.topology.score_from_bitmap(&agg.bitmap, drained);
                    cache.insert(drained, s)?;
                }
            }
            break;
        }
        // Relocate: free the source, redirect the owner to the destination.
        for (&src, &dst) in live.iter().zip(&plan.vbns) {
            agg.bitmap.free(src)?;
            let owner = agg.pvbn_owner[src.index()];
            agg.pvbn_owner[src.index()] = OWNER_NONE;
            agg.pvbn_owner[dst.index()] = owner;
            match owner {
                OWNER_NONE => {
                    return Err(WaflError::BitmapStateMismatch {
                        vbn: src,
                        expected_free: false,
                    });
                }
                OWNER_ORPHAN => {}
                packed => {
                    let (vol, vvbn) = unpack_owner(packed);
                    let v = &mut agg.vols[vol.index()];
                    debug_assert_eq!(v.lookup_vvbn(vvbn), Some(src));
                    v.redirect_vvbn(vvbn, dst);
                    debug_assert_eq!(agg.pvbn_owner[dst.index()], pack_owner(vol, vvbn));
                }
            }
        }
        stats.blocks_relocated += live.len() as u64;
        stats.aas_cleaned += 1;
        // Settle scores: the cleaned AA is empty; destination AAs changed.
        let g = &mut agg.groups[rg_index];
        if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
            cache.apply_batch(&mut g.batch);
            cache.insert(aa, wafl_types::AaScore(aa_blocks))?;
            for &drained in &plan.drained {
                let s = g.topology.score_from_bitmap(&agg.bitmap, drained);
                cache.insert(drained, s)?;
            }
        }
        agg.bitmap.take_dirty_stats(); // cleaning I/O tracked via stats
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::{AaScore, VolumeId};

    fn aged() -> Aggregate {
        let mut a = Aggregate::new(
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
                60_000,
            )],
            2,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 8192).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 60_000, 8192, 4).unwrap();
        a
    }

    #[test]
    fn cleaning_produces_empty_aas() {
        // Deterministic setup: every AA seeded to ~50 % random occupancy,
        // so the heap's best AA is never empty and cleaning must relocate.
        let mut a = seeded(&[], 0.5);
        let occupied_before = a.bitmap().space_len() - a.bitmap().free_blocks();
        let aa_blocks = (a.groups()[0].stripes_per_aa * 4) as u32;
        let best_before = a.groups()[0].cache().unwrap().best().unwrap().1;
        assert!(
            best_before.get() < aa_blocks,
            "50 % seed leaves no empty AA"
        );
        let stats = clean_top_aas(&mut a, 0, 2).unwrap();
        assert_eq!(stats.aas_cleaned, 2);
        assert!(stats.blocks_relocated > 0);
        // Now the heap's best is a completely empty AA.
        let best_after = a.groups()[0].cache().unwrap().best().unwrap().1;
        assert_eq!(best_after, AaScore(aa_blocks));
        // Occupancy conserved: relocation moves blocks, frees nothing.
        assert_eq!(
            a.bitmap().space_len() - a.bitmap().free_blocks(),
            occupied_before
        );
    }

    /// 4+1 HDD group of 16 Ki-block devices in 256-stripe AAs, hosting
    /// `vols`, every AA seeded to `fraction` random occupancy.
    fn seeded(vols: &[(FlexVolConfig, u64)], fraction: f64) -> Aggregate {
        let mut a = Aggregate::new(
            AggregateConfig {
                aa_policy_override: Some(wafl_types::AaSizingPolicy::Stripes { stripes: 256 }),
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            vols,
            2,
        )
        .unwrap();
        aging::seed_rg_random_occupancy(&mut a, 0, fraction, 77).unwrap();
        a
    }

    #[test]
    fn destination_takes_reach_the_heap() {
        // The destination AA that stays active after a cleaning is out of
        // the heap, so only the batch can tell the heap's score array
        // about the relocated blocks; a CP that later drains and
        // re-inserts it ranks it by that array.
        let vol = FlexVolConfig {
            size_blocks: 8 * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let mut a = seeded(&[(vol, 60_000)], 0.5);
        let stats = clean_top_aas(&mut a, 0, 2).unwrap();
        assert!(stats.blocks_relocated > 0);
        assert_eq!(crate::iron::check(&a).unwrap().stale_scores, 0);
        for cp in 0..6u64 {
            for l in 0..300 {
                a.client_overwrite(VolumeId(0), cp * 300 + l).unwrap();
            }
            a.run_cp().unwrap();
            let report = crate::iron::check(&a).unwrap();
            assert_eq!(report.stale_scores, 0, "after CP {cp}");
        }
    }

    #[test]
    fn refused_cleaning_gives_back_what_it_claimed() {
        // 99.7 % full: the best AA's live blocks outnumber every free block
        // elsewhere in the group, so the cleaning claims what there is,
        // comes up short and must leave no trace.
        let mut a = seeded(&[], 0.997);
        let free_before = a.bitmap().free_blocks();
        let pages_before = a.bitmap().page_free_counts().to_vec();
        let best_before = a.groups()[0].cache().unwrap().best();
        let before = crate::iron::check(&a).unwrap();
        let stats = clean_top_aas(&mut a, 0, 1).unwrap();
        assert_eq!(stats, CleaningStats::default());
        assert_eq!(a.bitmap().free_blocks(), free_before);
        assert_eq!(a.bitmap().page_free_counts(), &pages_before[..]);
        assert_eq!(a.bitmap().summary_divergences(), 0);
        assert_eq!(a.groups()[0].cache().unwrap().best(), best_before);
        assert!(a.groups()[0].batch.is_empty());
        assert_eq!(crate::iron::check(&a).unwrap(), before);
        // Nothing is charged to the next CP's metafile I/O either.
        assert_eq!(a.bitmap.take_dirty_stats(), Default::default());
    }

    #[test]
    fn relocated_blocks_stay_readable() {
        let mut a = aged();
        // Remember some logical mappings.
        let probes: Vec<u64> = (0..60_000).step_by(997).collect();
        clean_top_aas(&mut a, 0, 3).unwrap();
        // Every probe still resolves through vvbn -> pvbn to an allocated
        // physical block.
        for &l in &probes {
            let v = &a.volumes()[0];
            let vvbn = v.lookup_logical(l).expect("mapping survives cleaning");
            let pvbn = v.lookup_vvbn(vvbn).expect("pvbn survives cleaning");
            assert!(!a.bitmap().is_free(pvbn).unwrap());
        }
        // And overwrites after cleaning still work.
        for l in 0..1000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
    }

    #[test]
    fn cleaning_without_cache_is_rejected() {
        let mut a = Aggregate::new(
            AggregateConfig {
                raid_aware_cache: false,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[],
            1,
        )
        .unwrap();
        assert!(clean_top_aas(&mut a, 0, 1).is_err());
    }
}
