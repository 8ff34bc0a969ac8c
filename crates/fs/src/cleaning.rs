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
//!
//! Who owns a block is not recorded anywhere on the write path. A call
//! finds out by walking every volume's vvbn → pvbn map once and keeping
//! the pairs that point into its victim AAs — a cost proportional to the
//! mapped blocks of the aggregate, paid once per call however many AAs it
//! cleans. That is the right place to pay: cleaning is rare and
//! just-in-time, while a reverse table costs a store at bind and another
//! at free for every block of every CP, and 8 bytes per physical block,
//! whether or not anything is ever cleaned (`docs/perf.md`, *No owner
//! table on the write path*).

use crate::aggregate::{Aggregate, GroupCache};
use crate::allocator::{plan_raid_group, AllocatorMode};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wafl_types::{AaId, Vbn, WaflError, WaflResult};

/// Results of a cleaning pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CleaningStats {
    /// AAs whose live blocks were all relocated: empty, but for blocks
    /// still awaiting their logged free.
    pub aas_cleaned: u64,
    /// Live blocks relocated (the cleaning cost the §3.3.1 best-score
    /// policy minimizes).
    pub blocks_relocated: u64,
}

/// Clean up to `count` AAs from the top of `rg_index`'s max-heap. Each
/// cleaned AA has every live block relocated to other AAs of the same
/// group and re-enters the heap with the score its bits give it. A live
/// block is an allocated one that a volume map references or an aging
/// seed placed; an allocated block nobody owns is awaiting its logged
/// free (`batched_frees`) or leaked, has no content to move, and stays.
///
/// Returns an error if the group has no AA cache (cleaning is driven by
/// the heap). With not enough free space elsewhere to absorb an AA's live
/// blocks the pass stops there and leaves the remaining AAs as they were.
pub fn clean_top_aas(
    agg: &mut Aggregate,
    rg_index: usize,
    count: usize,
) -> WaflResult<CleaningStats> {
    let mut stats = CleaningStats::default();
    let g = &mut agg.groups[rg_index];
    let Some(GroupCache::Heap(cache)) = g.cache.as_mut() else {
        return Err(WaflError::InvalidConfig {
            reason: "segment cleaning requires the RAID-aware \
                     max-heap cache (object stores garbage-collect \
                     internally)"
                .into(),
        });
    };
    // All the victims first, and none goes back before the last is done:
    // an emptied AA in the heap has the best score there is, so it would
    // be taken again as the next victim or filled again as the next
    // destination. The owner walk wants the whole set too.
    let victims: Vec<AaId> = std::iter::from_fn(|| cache.take_best())
        .take(count)
        .map(|(aa, _score)| aa)
        .collect();
    let mut owners: HashMap<Vbn, (usize, Vbn)> = HashMap::new();
    for (vi, vol) in agg.vols.iter().enumerate() {
        for (vvbn, pvbn) in vol.vvbn_entries() {
            if g.geometry.contains(pvbn) && victims.contains(&g.topology.aa_of_vbn(pvbn)?) {
                owners.insert(pvbn, (vi, vvbn));
            }
        }
    }

    for &aa in &victims {
        // Live blocks of the AA, each with the (volume, vvbn) to redirect
        // (`None`: an aging seed).
        let mut live: Vec<(Vbn, Option<(usize, Vbn)>)> = Vec::new();
        for (start, len) in agg.groups[rg_index].topology.aa_vbn_ranges(aa) {
            for v in (start.get()..start.get() + len).map(Vbn) {
                if agg.bitmap.is_free(v)? {
                    continue;
                }
                let owner = owners.get(&v).copied();
                if owner.is_some() || agg.seeds.contains(v.index()) {
                    live.push((v, owner));
                }
            }
        }
        // Destinations from the same group's remaining AAs (the victims
        // are off the heap, so the planner cannot pick them), claimed in
        // the bitmap and recorded in the group's batch as they are found.
        // The batch is empty here (a CP applies it at its boundary, this
        // loop at the end of its body), so it holds this claim and nothing
        // else.
        debug_assert!(agg.groups[rg_index].batch.is_empty());
        let plan = plan_raid_group(
            &mut agg.groups[rg_index],
            &mut agg.bitmap,
            live.len(),
            AllocatorMode::CacheGuided,
            0xC1EA_u64 ^ aa.get() as u64,
        )?;
        let refused = plan.vbns.len() < live.len();
        if refused {
            // Not enough room elsewhere: give the claimed blocks back and
            // drop their batch entries.
            for &(start, len) in &plan.runs {
                agg.bitmap.free_run(start, len)?;
            }
            let _ = agg.groups[rg_index].batch.drain().count();
        } else {
            // Relocate: free the source, redirect the owner to the
            // destination.
            for (&(src, owner), &dst) in live.iter().zip(&plan.vbns) {
                agg.bitmap.free(src)?;
                match owner {
                    Some((vi, vvbn)) => agg.vols[vi].redirect_vvbn(vvbn, dst),
                    None => {
                        agg.seeds.remove(src.index());
                        agg.seeds.insert(dst.index());
                    }
                }
            }
            stats.blocks_relocated += live.len() as u64;
            stats.aas_cleaned += 1;
        }
        // Settle scores: the destination AAs changed; the AAs the planner
        // drained go back with what the bitmap says.
        let g = &mut agg.groups[rg_index];
        if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
            cache.apply_batch(&mut g.batch);
            for &drained in &plan.drained {
                cache.insert(drained, g.topology.score_from_bitmap(&agg.bitmap, drained))?;
            }
        }
        agg.bitmap.take_dirty_stats(); // cleaning I/O tracked via stats
        if refused {
            break;
        }
    }
    // The victims go back with what the bitmap says: the cleaned ones
    // empty (but for blocks awaiting a logged free), the ones a refusal
    // left untouched as they came.
    let g = &mut agg.groups[rg_index];
    if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
        for &aa in &victims {
            cache.insert(aa, g.topology.score_from_bitmap(&agg.bitmap, aa))?;
        }
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
        // Two AAs are completely empty by their bits — not one AA emptied
        // and then taken from the heap again.
        let g = &a.groups()[0];
        let empty = (0..g.topology.aa_count())
            .filter(|&aa| g.topology.score_from_bitmap(a.bitmap(), AaId(aa)).get() == aa_blocks)
            .count();
        assert_eq!(empty, 2);
        // ... and the heap's best is one of them.
        let best_after = g.cache().unwrap().best().unwrap().1;
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
        let pages_before = a.bitmap().unit_free_counts().to_vec();
        let best_before = a.groups()[0].cache().unwrap().best();
        let before = crate::iron::check(&a).unwrap();
        let stats = clean_top_aas(&mut a, 0, 1).unwrap();
        assert_eq!(stats, CleaningStats::default());
        assert_eq!(a.bitmap().free_blocks(), free_before);
        assert_eq!(a.bitmap().unit_free_counts(), &pages_before[..]);
        assert_eq!(a.bitmap().summary_divergences(), 0);
        assert_eq!(a.groups()[0].cache().unwrap().best(), best_before);
        assert!(a.groups()[0].batch.is_empty());
        assert_eq!(crate::iron::check(&a).unwrap(), before);
        // Nothing is charged to the next CP's metafile I/O either.
        assert_eq!(a.bitmap.take_dirty_stats(), Default::default());
    }

    #[test]
    fn blocks_awaiting_their_logged_free_stay_where_they_are() {
        // With `batched_frees` an overwritten block keeps its bit until
        // the free log reaches it, but no vvbn maps to it any more: it is
        // not live, and cleaning must neither redirect its old vvbn (gone,
        // or reused by another block) nor count the AA as empty.
        const LOGICALS: u64 = 150_000;
        let mut a = Aggregate::new(
            AggregateConfig {
                batched_frees: true,
                free_pages_per_cp: 1,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                LOGICALS,
            )],
            2,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 8192).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 600_000, 8192, 4).unwrap();
        assert!(a.free_log().pending() > 10_000);
        for round in 0..6u64 {
            let stats = clean_top_aas(&mut a, 0, 1).unwrap();
            assert_eq!(stats.aas_cleaned, 1, "round {round}");
            for i in 0..8192 {
                let l = (round * 8192 + i) * 7 % LOGICALS;
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            a.run_cp().unwrap();
            let report = crate::iron::check(&a).unwrap();
            assert!(report.is_clean(), "round {round}: {report:?}");
            let v = &a.volumes()[0];
            for l in 0..LOGICALS {
                let pvbn = v.lookup_vvbn(v.lookup_logical(l).unwrap()).unwrap();
                assert!(!a.bitmap().is_free(pvbn).unwrap(), "round {round}: {l}");
            }
        }
    }

    #[test]
    fn seeds_and_snapshot_pinned_blocks_move_with_their_aa() {
        // Neither kind of block is reachable from a logical block: a seed
        // belongs to no volume, a detached vvbn only to its snapshot.
        // Seeds in every AA, then a volume churned until its blocks are in
        // every AA too, a snapshot, and overwrites that detach a seventh
        // of what it pinned.
        let vol = FlexVolConfig {
            size_blocks: 8 * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let mut a = seeded(&[(vol, 180_000)], 0.1);
        aging::fill_volume(&mut a, VolumeId(0), 8192).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 150_000, 8192, 4).unwrap();
        a.snapshot_create(VolumeId(0)).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 25_000, 8192, 5).unwrap();
        let pinned = a.vols[0].snapshots[0].pinned.clone();
        let homes = |a: &Aggregate| -> Vec<Vbn> {
            pinned
                .iter()
                .map(|&vvbn| {
                    a.vols[0]
                        .lookup_vvbn(vvbn)
                        .expect("pinned vvbn stays mapped")
                })
                .collect()
        };
        let (before, homes_before) = (crate::iron::check(&a).unwrap(), homes(&a));
        assert!(
            before.is_clean() && before.orphaned_blocks > 0,
            "{before:?}"
        );

        // The victim holds at least one block of each kind.
        let g = &a.groups()[0];
        let victim = g.cache().unwrap().best().unwrap().0;
        let in_victim = |v: Vbn| g.topology.aa_of_vbn(v).unwrap() == victim;
        let detached_there = (a.vols[0].detached.iter())
            .filter(|&&vvbn| in_victim(a.vols[0].lookup_vvbn(Vbn(vvbn)).unwrap()))
            .count();
        let seeds_there = (g.topology.aa_vbn_ranges(victim).iter())
            .flat_map(|&(start, len)| (start.get()..start.get() + len).map(Vbn))
            .filter(|&v| a.seeds.contains(v.index()))
            .count();
        assert!(detached_there > 0 && seeds_there > 0);

        let stats = clean_top_aas(&mut a, 0, 1).unwrap();
        assert_eq!(stats.aas_cleaned, 1);
        let g = &a.groups()[0];
        assert_eq!(
            g.topology.score_from_bitmap(a.bitmap(), victim).get() as u64,
            g.topology.aa_blocks(victim)
        );
        // Same report (orphans included), same snapshot: every pinned
        // vvbn still resolves to an allocated block, and only those that
        // lived in the victim moved.
        assert_eq!(crate::iron::check(&a).unwrap(), before);
        assert_eq!(a.vols[0].snapshots[0].pinned, pinned);
        let mut moved = 0;
        for (&was, &now) in homes_before.iter().zip(&homes(&a)) {
            assert!(!a.bitmap().is_free(now).unwrap());
            let was_there = g.topology.aa_of_vbn(was).unwrap() == victim;
            assert_eq!(was != now, was_there);
            moved += usize::from(was_there);
        }
        assert!(moved >= detached_there);
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
