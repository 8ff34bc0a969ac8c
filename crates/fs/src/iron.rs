//! Online consistency checking and repair — the WAFL Iron analogue.
//!
//! §3.4: "In rare cases, if the metafile blocks are damaged in the
//! physical media and RAID is unable to reconstruct them, the online WAFL
//! repair tool — WAFL Iron — is used to recompute and recover them."
//! This module is that tool for the simulated stack: it audits every
//! cross-structure invariant the allocator depends on and recomputes
//! derived state (AA caches, summaries) from the authoritative bitmaps
//! and volume maps.
//!
//! Check phases:
//! 1. **Mappings** — every logical→virtual→physical chain resolves to
//!    allocated bits in both spaces, and no two virtual VBNs share a
//!    physical block.
//! 2. **Ownership** — there is no owner table to audit: who owns a pvbn
//!    is whichever vvbn the volume maps point at it, so the check marks
//!    every referenced pvbn in a one-bit-per-pvbn set and compares that
//!    with the activemap. A referenced pvbn must be allocated; an
//!    allocated pvbn must be referenced, an aging seed, or awaiting its
//!    logged free.
//! 3. **Space accounting** — per-volume occupancy equals the volume's
//!    referenced pairs.
//! 4. **Derived structures** — each by its own audit, against popcounts:
//!    every max-heap ([`wafl_core::RaidAwareCache::audit`]), every HBPS
//!    ([`wafl_core::Hbps::audit`]) and the delayed-free ranking
//!    ([`crate::delayed_free::DelayedFreeLog::audit`]).
//! 5. **Summaries** — [`wafl_bitmap::Bitmap::summary_divergences`].
//!
//! [`check`] reports; [`repair`] additionally rebuilds what can be
//! recomputed (caches, the delayed-free ranking, summaries), reclaims
//! leaks and reports what it fixed. The scrubber ([`crate::scrub`]) runs
//! phases 4 and 5 one structure or bitmap page at a time.

use crate::aggregate::{Aggregate, GroupCache, RaidGroupState};
use crate::allocator::popcount_score;
use crate::bitset::BitSet;
use crate::volume::FlexVol;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use wafl_bitmap::Bitmap;
use wafl_core::{AaTopology, RaidAgnosticCache};
use wafl_types::{AaId, AaScore, Vbn, WaflResult};

/// Findings of a consistency check.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IronReport {
    /// Logical blocks whose mapping chain is broken (dangling vvbn or
    /// pvbn, or bit not set where required).
    pub broken_mappings: u64,
    /// Free physical blocks a volume map still references.
    pub owner_mismatches: u64,
    /// Allocated physical blocks that no volume map references, no aging
    /// seed placed and no logged free awaits — leaked space.
    pub leaked_blocks: u64,
    /// Allocated virtual VBNs no volume map references — leaked virtual
    /// space (the signature of a crash between vvbn allocation and
    /// binding, or of lost delayed vvbn frees).
    pub leaked_vvbns: u64,
    /// Allocated physical blocks placed by an aging seed rather than any
    /// volume. Deliberate test-fixture state, not an inconsistency — but
    /// capacity planning wants the number, so it is surfaced instead of
    /// discarded.
    pub orphaned_blocks: u64,
    /// Divergences the derived-structure audits found (phase 4): heap
    /// scores, heap order and ranked-xor-active breaks, HBPS bin counts
    /// and list entries of every cache, and the delayed-free ranking
    /// against its log. Repair rebuilds all of them.
    pub stale_scores: u64,
    /// Bitmap free-count summary counters (per summary unit, or the
    /// top-level total) that disagree with the popcount ground truth of
    /// the raw bits — scribbled derived state, rebuilt by repair.
    pub stale_summary_counters: u64,
    /// Volumes whose occupancy count disagrees with their live mappings.
    pub volume_accounting_errors: u64,
    /// Repairs performed (zero for a pure check).
    pub repairs: u64,
}

impl IronReport {
    /// True when no inconsistency was found. Orphaned aging-seed blocks
    /// do not count — they are deliberate fixture state, not damage.
    pub fn is_clean(&self) -> bool {
        self.broken_mappings == 0
            && self.owner_mismatches == 0
            && self.leaked_blocks == 0
            && self.leaked_vvbns == 0
            && self.stale_scores == 0
            && self.stale_summary_counters == 0
            && self.volume_accounting_errors == 0
    }
}

/// Audit the aggregate without modifying it.
pub fn check(agg: &Aggregate) -> WaflResult<IronReport> {
    audit(agg).map(|(report, _)| report)
}

/// The audit behind [`check`], with the leaked physical blocks it counted
/// (what [`repair`] reclaims).
fn audit(agg: &Aggregate) -> WaflResult<(IronReport, Vec<Vbn>)> {
    agg.obs.iron_audits.inc(1);
    let mut report = IronReport::default();

    // Phase 1: logical mapping chains resolve through allocated bits.
    let mut referenced = BitSet::default();
    for vol in &agg.vols {
        for l in 0..vol.logical_blocks() {
            let Some(vvbn) = vol.lookup_logical(l) else {
                continue;
            };
            let vvbn_ok = vol.bitmap().is_free(vvbn).map(|f| !f).unwrap_or(false);
            let Some(pvbn) = vol.lookup_vvbn(vvbn) else {
                report.broken_mappings += 1;
                continue;
            };
            let pvbn_ok = agg.bitmap.is_free(pvbn).map(|f| !f).unwrap_or(false);
            if !vvbn_ok || !pvbn_ok {
                report.broken_mappings += 1;
            }
        }
        // Phase 2 input: every *referenced* pair — active file system plus
        // snapshot-pinned blocks — owns its pvbn.
        let mut pairs = 0u64;
        for (_, pvbn) in vol.vvbn_entries() {
            pairs += 1;
            if !referenced.insert(pvbn.index()) {
                // Two virtual blocks share one physical block.
                report.broken_mappings += 1;
            }
        }
        if vol.size_blocks() - vol.free_blocks() != pairs {
            report.volume_accounting_errors += 1;
        }
        // Virtual leaks: an allocated vvbn bit nothing maps. Snapshot-
        // pinned and detached blocks stay in `vvbn_map`, so bit-set ⟺
        // mapped is the invariant; a gap means a crash between vvbn
        // allocation and binding, or a lost delayed vvbn free.
        for v in 0..vol.size_blocks() {
            let vvbn = Vbn(v);
            let set = vol.bitmap().is_free(vvbn).map(|f| !f).unwrap_or(false);
            if set && vol.lookup_vvbn(vvbn).is_none() {
                report.leaked_vvbns += 1;
            }
        }
    }

    // Phase 2: the referenced set against the activemap. Blocks in the
    // delayed-free log are absolved precisely (by VBN, not by count): a
    // logged free's bit stays set, with nothing referencing it, until a
    // processing pass applies it — expected in-between state, not damage.
    // (One already free yet still logged is a crash between the bitmap
    // write and the log update; replay skips it.)
    let pending: HashSet<Vbn> = agg.free_log.pending_vbns().into_iter().collect();
    let mut leaked = Vec::new();
    for v in 0..agg.bitmap.space_len() {
        let vbn = Vbn(v);
        match (!agg.bitmap.is_free(vbn)?, referenced.contains(vbn.index())) {
            (true, false) if agg.seeds.contains(vbn.index()) => report.orphaned_blocks += 1,
            (true, false) if !pending.contains(&vbn) => leaked.push(vbn),
            (false, true) => report.owner_mismatches += 1,
            _ => {}
        }
    }
    report.leaked_blocks = leaked.len() as u64;

    // Phase 4: every derived structure against its truth, through the
    // structure's own audit: the AA caches against a popcount of the
    // bitmap, the delayed-free ranking against the log. Phase 5: the
    // bitmap free-count summaries, against a popcount of the raw bits.
    for g in &agg.groups {
        report.stale_scores += group_cache_divergences(g, &agg.bitmap);
    }
    report.stale_scores += agg.free_log.audit();
    report.stale_summary_counters += agg.bitmap.summary_divergences();
    for vol in &agg.vols {
        report.stale_scores += vol_cache_divergences(vol);
        report.stale_summary_counters += vol.bitmap().summary_divergences();
    }
    Ok((report, leaked))
}

/// Divergences of group `g`'s AA cache from a popcount of `bitmap`: the
/// max-heap's audit or the HBPS's (0 without a cache).
pub(crate) fn group_cache_divergences(g: &RaidGroupState, bitmap: &Bitmap) -> u64 {
    match g.cache.as_ref() {
        Some(GroupCache::Heap(cache)) => cache.audit(
            |aa| AaScore(popcount_score(&g.topology, bitmap, aa)),
            g.active_aa,
        ),
        Some(GroupCache::Hbps(cache)) => hbps_divergences(cache, bitmap),
        None => 0,
    }
}

/// Divergences of `vol`'s HBPS from a popcount of its bitmap (0 without
/// a cache).
pub(crate) fn vol_cache_divergences(vol: &FlexVol) -> u64 {
    vol.cache()
        .map_or(0, |cache| hbps_divergences(cache, &vol.bitmap))
}

/// Divergences of an HBPS cache, a volume's or a group's, from a
/// popcount of the bitmap its topology tiles.
fn hbps_divergences(cache: &RaidAgnosticCache, bitmap: &Bitmap) -> u64 {
    cache
        .hbps()
        .audit(popcount_scores(cache.topology(), bitmap))
}

/// Every AA of `topology` with its popcount score.
fn popcount_scores<'a>(
    topology: &'a AaTopology,
    bitmap: &'a Bitmap,
) -> impl Iterator<Item = (AaId, AaScore)> + 'a {
    (0..topology.aa_count())
        .map(AaId)
        .map(|aa| (aa, AaScore(popcount_score(topology, bitmap, aa))))
}

/// Audit and repair: rebuilds AA caches from the bitmaps and reclaims
/// leaked blocks in both VBN spaces (the residue of a torn CP). Broken
/// mapping chains and free-but-referenced blocks are reported but not
/// invented (data loss cannot be repaired from metadata alone — matching
/// the real tool's behaviour of flagging, not fabricating).
pub fn repair(agg: &mut Aggregate) -> WaflResult<IronReport> {
    let (mut report, leaked) = audit(agg)?;
    if report.is_clean() {
        return Ok(report);
    }
    // Rebuild scribbled free-count summaries FIRST: the repairs below
    // mutate bitmaps through allocate/free, which maintain the summary
    // incrementally and therefore need sane counters to start from.
    if report.stale_summary_counters > 0 {
        agg.bitmap.rebuild_summary();
        for vol in &mut agg.vols {
            vol.bitmap.rebuild_summary();
        }
        report.repairs += report.stale_summary_counters;
    }
    // Reclaim leaked virtual blocks: allocated vvbn bits nothing maps.
    if report.leaked_vvbns > 0 || report.volume_accounting_errors > 0 {
        for vol in &mut agg.vols {
            let leaked: Vec<Vbn> = (0..vol.size_blocks())
                .map(Vbn)
                .filter(|&v| {
                    vol.bitmap().is_free(v).map(|f| !f).unwrap_or(false)
                        && vol.lookup_vvbn(v).is_none()
                })
                .collect();
            for v in leaked {
                vol.bitmap.free(v)?;
                vol.note_vvbn_freed(v);
                report.repairs += 1;
            }
        }
    }
    // Reclaim leaked physical blocks: allocated, referenced by no volume
    // map (active or snapshot-pinned), not an aging seed and not awaiting
    // a logged delayed free.
    for &vbn in &leaked {
        agg.bitmap.free(vbn)?;
    }
    report.repairs += report.leaked_blocks;
    // Rebuild every cache whose inputs changed (recomputing what the
    // paper says Iron recomputes: the TopAA-backed structures). Freeing
    // leaked pvbns invalidates cached group scores even when the check
    // found none stale.
    if report.stale_scores > 0 || report.leaked_blocks > 0 {
        for g in agg.groups.iter_mut().filter(|g| g.cache.is_some()) {
            g.rebuild_cache(&agg.bitmap)?;
            report.repairs += 1;
        }
    }
    if report.stale_scores > 0 {
        agg.free_log.rebuild_ranking()?;
    }
    for vol in agg.vols.iter_mut().filter(|v| v.cache.is_some()) {
        vol.rebuild_cache()?;
        report.repairs += 1;
    }
    // A full repair rebuilt every summary and cache from the raw bits:
    // nothing remains suspect, so every fenced cache and pending scrub
    // ticket is settled and the aggregate returns to Healthy.
    crate::scrub::clear_all(agg);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_core::ScoreDeltaBatch;
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn agg() -> Aggregate {
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
            12,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 30_000, 4096, 13).unwrap();
        a
    }

    #[test]
    fn healthy_aggregate_checks_clean() {
        let a = agg();
        let report = check(&a).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    #[test]
    fn scribbled_cache_is_detected_and_repaired() {
        let mut a = agg();
        // Scribble a cached score (the §3.4 memory-scribble scenario):
        // knock the best (nonzero-score) AA's cached value down without
        // touching the bitmap.
        if let Some(GroupCache::Heap(cache)) = a.groups[0].cache.as_mut() {
            let victim = cache.best().expect("aged group has AAs").0;
            let mut batch = ScoreDeltaBatch::new();
            batch.record_allocated(victim, 12_345);
            cache.apply_batch(&mut batch);
        }
        let report = check(&a).unwrap();
        assert!(report.stale_scores > 0);
        let fixed = repair(&mut a).unwrap();
        assert!(fixed.repairs > 0);
        assert!(check(&a).unwrap().is_clean());
        // The repaired system keeps serving traffic.
        for l in 0..1000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
    }

    #[test]
    fn scribbled_summary_counter_is_detected_and_repaired() {
        let mut a = agg();
        // Scribble a free-count summary counter on the physical
        // bitmap: the bits are intact, only derived state is damaged.
        a.bitmap.scribble_page_counter(3, u16::MAX);
        let report = check(&a).unwrap();
        assert!(report.stale_summary_counters > 0, "{report:?}");
        repair(&mut a).unwrap();
        assert!(check(&a).unwrap().is_clean());
        // And the repaired summary keeps serving allocation traffic.
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
    }

    /// A mapped (vvbn, pvbn) pair of volume 0, found through logical `l`.
    fn pair_of(a: &Aggregate, l: u64) -> (Vbn, Vbn) {
        let v = &a.vols[0];
        let vvbn = v.lookup_logical(l).expect("aged volume maps every block");
        (vvbn, v.lookup_vvbn(vvbn).unwrap())
    }

    // With no owner table there is nothing to scribble; what can still
    // disagree is the volume maps against the activemap. One test per form.

    #[test]
    fn free_but_referenced_block_is_detected() {
        let mut a = agg();
        let (_, pvbn) = pair_of(&a, 17);
        a.bitmap.free(pvbn).unwrap();
        let report = check(&a).unwrap();
        assert_eq!(report.owner_mismatches, 1, "{report:?}");
        assert_eq!(report.broken_mappings, 1, "logical 17's chain: {report:?}");
        assert_eq!(report.leaked_blocks, 0, "{report:?}");
        // The block's content may be gone: flagged, not papered over.
        repair(&mut a).unwrap();
        assert_eq!(check(&a).unwrap().owner_mismatches, 1);
    }

    #[test]
    fn doubly_referenced_block_is_detected() {
        let mut a = agg();
        let (vvbn, was) = pair_of(&a, 17);
        let (_, shared) = pair_of(&a, 18);
        a.vols[0].redirect_vvbn(vvbn, shared);
        let report = check(&a).unwrap();
        assert_eq!(report.broken_mappings, 1, "{report:?}");
        assert_eq!(report.owner_mismatches, 0, "{report:?}");
        // ... and the block `vvbn` pointed at before is referenced by
        // nothing now.
        assert_eq!(report.leaked_blocks, 1, "{report:?}");
        repair(&mut a).unwrap();
        assert!(a.bitmap.is_free(was).unwrap());
        let after = check(&a).unwrap();
        assert_eq!((after.broken_mappings, after.leaked_blocks), (1, 0));
    }

    #[test]
    fn allocated_unreferenced_block_is_detected_and_repaired() {
        let mut a = agg();
        let free_before = a.bitmap.free_blocks();
        let stray: Vec<Vbn> = (0..a.bitmap.space_len())
            .map(Vbn)
            .filter(|&v| a.bitmap.is_free(v).unwrap())
            .step_by(1000)
            .take(5)
            .collect();
        for &v in &stray {
            a.bitmap.allocate(v).unwrap();
        }
        let report = check(&a).unwrap();
        assert_eq!(report.leaked_blocks, 5, "{report:?}");
        assert_eq!(report.owner_mismatches, 0, "{report:?}");
        let fixed = repair(&mut a).unwrap();
        assert!(fixed.repairs >= 5, "{fixed:?}");
        assert_eq!(a.bitmap.free_blocks(), free_before);
        assert!(check(&a).unwrap().is_clean());
        // Segment cleaning (the other reader of derived ownership) works
        // on the repaired aggregate.
        let cleaned = crate::cleaning::clean_top_aas(&mut a, 0, 1).unwrap();
        assert_eq!(cleaned.aas_cleaned, 1);
        assert!(check(&a).unwrap().is_clean());
    }

    #[test]
    fn pending_delayed_frees_are_not_leaks() {
        let mut a = Aggregate::new(
            AggregateConfig {
                batched_frees: true,
                free_pages_per_cp: 0, // never process: everything stays logged
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
                60_000,
            )],
            12,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 20_000, 4096, 14).unwrap();
        assert!(a.free_log().pending() > 0);
        let report = check(&a).unwrap();
        assert_eq!(report.leaked_blocks, 0, "{report:?}");
    }
}
