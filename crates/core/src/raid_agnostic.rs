//! The RAID-agnostic AA cache: an [`Hbps`] bound to a topology and a
//! bitmap (§3.3.2).

use crate::batch::ScoreDeltaBatch;
use crate::hbps::{Hbps, HbpsConfig, HbpsStats};
use crate::topology::AaTopology;
use wafl_bitmap::Bitmap;
use wafl_types::{AaId, AaScore, ScoreDelta, WaflError, WaflResult, BLOCK_SIZE};

/// Statistics describing the quality of AA picks — the §4.1.2 measurement
/// ("average free space available in the chosen AAs").
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PickStats {
    /// AAs handed to the write allocator.
    pub picks: u64,
    /// Sum of the picked AAs' exact scores at pick time.
    pub score_sum: u64,
    /// Background replenish scans performed.
    pub replenish_scans: u64,
}

impl PickStats {
    /// Mean free fraction of the picked AAs given the per-AA block count.
    pub fn mean_free_fraction(&self, aa_blocks: u32) -> f64 {
        if self.picks == 0 || aa_blocks == 0 {
            0.0
        } else {
            self.score_sum as f64 / (self.picks as f64 * aa_blocks as f64)
        }
    }
}

/// The RAID-agnostic allocation-area cache for one FlexVol or natively
/// redundant physical range.
///
/// Two pages of state (the embedded HBPS), regardless of volume size
/// (§3.3.2: "a finite amount of memory even when tracking millions of
/// AAs"). Score truth lives in the bitmap; this cache only indexes it.
pub struct RaidAgnosticCache {
    hbps: Hbps,
    topology: AaTopology,
    /// Replenish trigger: scan when the list drains below this.
    low_water: usize,
    stats: PickStats,
}

impl RaidAgnosticCache {
    /// Default list low-water mark before a replenish scan is requested.
    pub const DEFAULT_LOW_WATER: usize = 16;

    /// Build by scanning the bitmap — the expensive cold-mount path the
    /// TopAA metafile exists to avoid (§3.4).
    pub fn build(topology: AaTopology, bitmap: &Bitmap) -> WaflResult<RaidAgnosticCache> {
        if topology.is_raid_aware() {
            return Err(WaflError::InvalidConfig {
                reason: "RaidAgnosticCache needs a RAID-agnostic topology".into(),
            });
        }
        let cfg = HbpsConfig {
            max_score: topology.max_score(),
            ..HbpsConfig::default()
        };
        let hbps = Hbps::build(cfg, topology.all_scores(bitmap))?;
        Ok(RaidAgnosticCache {
            hbps,
            topology,
            low_water: Self::DEFAULT_LOW_WATER,
            stats: PickStats::default(),
        })
    }

    /// Restore from the two TopAA metafile blocks — the fast mount path.
    /// The HBPS pages are embedded verbatim in the metafile (§3.4), so
    /// this is pure deserialization: no bitmap I/O.
    pub fn from_topaa(
        topology: AaTopology,
        hist: &[u8; BLOCK_SIZE],
        list: &[u8; BLOCK_SIZE],
    ) -> WaflResult<RaidAgnosticCache> {
        let hbps = Hbps::from_pages_for(&topology, hist, list)?;
        Ok(RaidAgnosticCache {
            hbps,
            topology,
            low_water: Self::DEFAULT_LOW_WATER,
            stats: PickStats::default(),
        })
    }

    /// The two TopAA metafile blocks to persist at CP time.
    pub fn to_topaa(&self) -> ([u8; BLOCK_SIZE], [u8; BLOCK_SIZE]) {
        self.hbps.to_pages()
    }

    /// Claim the best AA for writing. The returned score is the exact
    /// current score (read from the bitmap's per-AA summary counter when
    /// one is enabled — O(1) — and otherwise one summary-accelerated
    /// range count). `None` when the cache is empty; callers should then
    /// replenish and retry.
    pub fn pick_best(&mut self, bitmap: &Bitmap) -> Option<(AaId, AaScore)> {
        let (aa, _bound) = self.hbps.take_best()?;
        let exact = self.topology.score_from_bitmap(bitmap, aa);
        self.stats.picks += 1;
        self.stats.score_sum += exact.get() as u64;
        Some((aa, exact))
    }

    /// Apply one CP's batched deltas (§3.3: "updates to the HBPS get
    /// efficiently batched at the CP boundary"). The bitmap must already
    /// reflect the CP's allocations and frees; each touched AA reads its
    /// new score from the free-count summary (O(1) with the per-AA
    /// counters volumes enable), and the old score is reconstructed from
    /// the delta — no per-AA score array exists.
    pub fn apply_cp_batch(
        &mut self,
        batch: &mut ScoreDeltaBatch,
        bitmap: &Bitmap,
    ) -> WaflResult<()> {
        for (aa, delta) in batch.drain() {
            let new = self.topology.score_from_bitmap(bitmap, aa);
            let max = self.topology.aa_blocks(aa) as u32;
            let old = new.apply(ScoreDelta(-delta.0), max);
            self.hbps.on_score_change(aa, old, new)?;
        }
        Ok(())
    }

    /// Replenish the list from a full scan if it has drained (§3.3.2's
    /// background scan). Returns `true` if a scan ran — the caller charges
    /// its cost (`bitmap.page_count()` page reads; the in-memory rescan
    /// itself is a summary-counter copy, not a popcount walk).
    ///
    /// A scan empties `batch`, the deltas recorded for this cache since
    /// its last [`RaidAgnosticCache::apply_cp_batch`]. They describe
    /// changes the bitmap already holds, so the scan has just read their
    /// outcome; applied afterwards they would move each AA out of the bin
    /// it had *before* them — a bin the rescanned histogram no longer
    /// counts it in. (The allocator scans in the middle of a CP when the
    /// list runs dry. Left in the batch, that CP's earlier allocations
    /// made the histogram drift and the list grow duplicates until a bin
    /// listed more AAs than it counted: a TopAA image `from_pages`
    /// rejects.)
    pub fn maybe_replenish(
        &mut self,
        bitmap: &Bitmap,
        batch: &mut ScoreDeltaBatch,
    ) -> WaflResult<bool> {
        if !self.hbps.needs_replenish(self.low_water) {
            return Ok(false);
        }
        self.hbps.replenish(self.topology.all_scores(bitmap))?;
        let _ = batch.drain().count();
        self.stats.replenish_scans += 1;
        Ok(true)
    }

    /// Pick-quality statistics.
    pub fn stats(&self) -> PickStats {
        self.stats
    }

    /// Reset statistics (after aging, before measurement).
    pub fn reset_stats(&mut self) {
        self.stats = PickStats::default();
    }

    /// Memory footprint: two pages, always.
    pub fn memory_bytes(&self) -> usize {
        self.hbps.memory_bytes()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &AaTopology {
        &self.topology
    }

    /// Access to the embedded HBPS (read-only; for diagnostics/benches).
    pub fn hbps(&self) -> &Hbps {
        &self.hbps
    }

    /// Return and reset the embedded HBPS's maintenance counters (delta
    /// scrape for an external metrics registry).
    pub fn take_hbps_stats(&mut self) -> HbpsStats {
        self.hbps.take_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_types::{AaSizingPolicy, Vbn};

    fn topo(space: u64) -> AaTopology {
        AaTopology::raid_agnostic(space, AaSizingPolicy::ConsecutiveVbns { blocks: 1024 }).unwrap()
    }

    #[test]
    fn build_rejects_raid_aware_topology() {
        let g =
            wafl_raid::RaidGeometry::new(wafl_types::RaidGroupId(0), 3, 1, 4096, Vbn(0)).unwrap();
        let t = AaTopology::raid_aware(g, AaSizingPolicy::Stripes { stripes: 1024 }).unwrap();
        let b = Bitmap::new(3 * 4096);
        assert!(RaidAgnosticCache::build(t, &b).is_err());
    }

    #[test]
    fn picks_prefer_empty_aas() {
        let t = topo(16 * 1024);
        let mut bitmap = Bitmap::new(16 * 1024);
        // Fill AAs 0..8 completely; leave 8..16 empty.
        for v in 0..8 * 1024u64 {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        let mut cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        let (aa, score) = cache.pick_best(&bitmap).unwrap();
        assert!(aa.get() >= 8, "picked a full AA {aa}");
        assert_eq!(score, AaScore(1024));
        assert_eq!(cache.stats().picks, 1);
        assert_eq!(cache.stats().mean_free_fraction(1024), 1.0);
    }

    #[test]
    fn cp_batch_updates_rankings() {
        let t = topo(4 * 1024);
        let mut bitmap = Bitmap::new(4 * 1024);
        let mut cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        // CP: consume all of AA 0 and most of AA 1.
        let mut batch = ScoreDeltaBatch::new();
        for v in 0..1024u64 {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        batch.record_allocated(AaId(0), 1024);
        for v in 1024..2000u64 {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        batch.record_allocated(AaId(1), 2000 - 1024);
        cache.apply_cp_batch(&mut batch, &bitmap).unwrap();
        // Best picks now come from AAs 2 and 3 only.
        let (a, s) = cache.pick_best(&bitmap).unwrap();
        assert!(a.get() >= 2);
        assert_eq!(s, AaScore(1024));
        let (b, _) = cache.pick_best(&bitmap).unwrap();
        assert!(b.get() >= 2 && b != a);
    }

    #[test]
    fn replenish_refills_a_drained_list() {
        let t = topo(64 * 1024); // 64 AAs
        let bitmap = Bitmap::new(64 * 1024);
        let mut cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        // Drain everything the list holds.
        while cache.pick_best(&bitmap).is_some() {}
        let mut batch = ScoreDeltaBatch::new();
        assert!(cache.maybe_replenish(&bitmap, &mut batch).unwrap());
        assert!(cache.pick_best(&bitmap).is_some());
        assert_eq!(cache.stats().replenish_scans, 1);
        // A full list does not replenish again.
        assert!(!cache.maybe_replenish(&bitmap, &mut batch).unwrap());
    }

    #[test]
    fn a_mid_cp_replenish_spends_the_batch_it_has_just_read() {
        let t = topo(64 * 1024);
        let mut bitmap = Bitmap::new(64 * 1024);
        let mut cache = RaidAgnosticCache::build(t.clone(), &bitmap).unwrap();
        let mut batch = ScoreDeltaBatch::new();
        // First half of a CP: AA 0 is drained to the last block, and the
        // list runs dry.
        bitmap.allocate_run(Vbn(0), 1024).unwrap();
        batch.record_allocated(AaId(0), 1024);
        while cache.pick_best(&bitmap).is_some() {}
        // The rescan counts AA 0 where it is now, in the last bin …
        assert!(cache.maybe_replenish(&bitmap, &mut batch).unwrap());
        assert!(batch.is_empty());
        // … so only what the CP does afterwards is left to apply.
        bitmap.allocate_run(Vbn(1024), 100).unwrap();
        batch.record_allocated(AaId(1), 100);
        cache.apply_cp_batch(&mut batch, &bitmap).unwrap();
        let mut want = vec![0u32; cache.hbps().bin_counts().len()];
        for (_, score) in t.all_scores(&bitmap) {
            want[cache.hbps().bin_of(score)] += 1;
        }
        assert_eq!(cache.hbps().bin_counts(), &want[..]);
        let (hist, list) = cache.to_topaa();
        assert!(Hbps::from_pages(&hist, &list).is_ok());
    }

    #[test]
    fn topaa_round_trip_preserves_picks() {
        let t = topo(32 * 1024);
        let mut bitmap = Bitmap::new(32 * 1024);
        for v in 0..5 * 1024u64 {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        let cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        let (p1, p2) = cache.to_topaa();
        let mut restored = RaidAgnosticCache::from_topaa(topo(32 * 1024), &p1, &p2).unwrap();
        let (aa, score) = restored.pick_best(&bitmap).unwrap();
        assert!(aa.get() >= 5);
        assert_eq!(score, AaScore(1024));
        assert_eq!(restored.memory_bytes(), 2 * 4096);
    }

    #[test]
    fn topaa_mismatched_topology_rejected() {
        let t = topo(32 * 1024);
        let bitmap = Bitmap::new(32 * 1024);
        let cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        let (p1, p2) = cache.to_topaa();
        let other =
            AaTopology::raid_agnostic(32 * 1024, AaSizingPolicy::ConsecutiveVbns { blocks: 2048 })
                .unwrap();
        assert!(RaidAgnosticCache::from_topaa(other, &p1, &p2).is_err());
    }

    #[test]
    fn pick_error_margin_holds() {
        // Whatever the score distribution, a pick is within one bin width
        // of the true best (the 3.125 % guarantee, scaled to this config).
        let t = topo(128 * 1024);
        let mut bitmap = Bitmap::new(128 * 1024);
        // Engineer varied scores.
        for aa in 0..128u64 {
            let used = (aa * 13) % 1000;
            for v in 0..used {
                bitmap.allocate(Vbn(aa * 1024 + v)).unwrap();
            }
        }
        let mut cache = RaidAgnosticCache::build(t, &bitmap).unwrap();
        let true_best = (0..128u64)
            .map(|aa| bitmap.free_count_range(Vbn(aa * 1024), 1024))
            .max()
            .unwrap();
        let (_, picked) = cache.pick_best(&bitmap).unwrap();
        let bin_width = 1024 / 32;
        assert!(
            picked.get() + bin_width >= true_best,
            "picked {picked} vs best {true_best}"
        );
    }
}
