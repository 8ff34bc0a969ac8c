//! The RAID-agnostic AA cache: an [`Hbps`] bound to a topology and a
//! bitmap (§3.3.2).

use crate::batch::ScoreDeltaBatch;
use crate::hbps::{Hbps, HbpsConfig};
use crate::topology::AaTopology;
use wafl_bitmap::Bitmap;
use wafl_types::{AaId, AaScore, ScoreDelta, WaflResult, BLOCK_SIZE};

/// The RAID-agnostic allocation-area cache for one FlexVol or natively
/// redundant physical range. An object-store group's topology is
/// RAID-aware in form only: one data device, so each AA is one VBN run,
/// as a volume's is.
///
/// Two pages of state (the embedded HBPS), regardless of volume size
/// (§3.3.2: "a finite amount of memory even when tracking millions of
/// AAs"). Score truth lives in the bitmap; this cache only indexes it.
pub struct RaidAgnosticCache {
    hbps: Hbps,
    topology: AaTopology,
}

impl RaidAgnosticCache {
    /// The list low-water mark: a replenish scan runs once the list
    /// drains below it (or its quality degrades).
    pub const DEFAULT_LOW_WATER: usize = 16;

    /// Build by scanning the bitmap — the expensive cold-mount path the
    /// TopAA metafile exists to avoid (§3.4).
    pub fn build(topology: AaTopology, bitmap: &Bitmap) -> WaflResult<RaidAgnosticCache> {
        let cfg = HbpsConfig {
            max_score: topology.max_score(),
            ..HbpsConfig::default()
        };
        let hbps = Hbps::build(cfg, topology.all_scores(bitmap))?;
        Ok(RaidAgnosticCache { hbps, topology })
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
        Ok(RaidAgnosticCache { hbps, topology })
    }

    /// The two TopAA metafile blocks to persist at CP time.
    pub fn to_topaa(&self) -> ([u8; BLOCK_SIZE], [u8; BLOCK_SIZE]) {
        self.hbps.to_pages()
    }

    /// Claim the best AA for writing. The returned score is the exact
    /// current score, [`AaTopology::score_from_bitmap`]: one summary
    /// counter load when the AA is the bitmap's summary unit, as a
    /// volume's is. `None` when the cache is empty; callers should then
    /// replenish and retry.
    pub fn pick_best(&mut self, bitmap: &Bitmap) -> Option<(AaId, AaScore)> {
        let (aa, _bound) = self.hbps.take_best()?;
        let exact = self.topology.score_from_bitmap(bitmap, aa);
        Some((aa, exact))
    }

    /// Apply one CP's batched deltas (§3.3: "updates to the HBPS get
    /// efficiently batched at the CP boundary"). The bitmap must already
    /// reflect the CP's allocations and frees; each touched AA reads its
    /// new score from the free-count summary (one counter when the AA is
    /// the bitmap's summary unit, as a volume's is), and the old score is
    /// reconstructed from the delta — no per-AA score array exists.
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
    /// itself reads summary counters, not a popcount walk).
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
        if !self.hbps.needs_replenish(Self::DEFAULT_LOW_WATER) {
            return Ok(false);
        }
        self.hbps.replenish(self.topology.all_scores(bitmap))?;
        let _ = batch.drain().count();
        Ok(true)
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

    /// The embedded HBPS, writable: fault injection scribbles on it.
    #[doc(hidden)]
    pub fn hbps_mut(&mut self) -> &mut Hbps {
        &mut self.hbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wafl_types::{AaSizingPolicy, Vbn};

    fn topo(space: u64) -> AaTopology {
        AaTopology::raid_agnostic(space, AaSizingPolicy::ConsecutiveVbns { blocks: 1024 }).unwrap()
    }

    /// An object-store group's one-device stripe topology: the cache
    /// builds over it, its TopAA image restores, and the restored cache
    /// picks what the built one does, at the same exact scores.
    #[test]
    fn an_object_store_groups_cache_restores_its_picks() {
        let g = wafl_raid::RaidGeometry::new(wafl_types::RaidGroupId(0), 1, 0, 16 * 1024, Vbn(0))
            .unwrap();
        let t = AaTopology::raid_aware(g, AaSizingPolicy::Stripes { stripes: 1024 }).unwrap();
        let mut bitmap = Bitmap::new(16 * 1024);
        for aa in 0..16u64 {
            bitmap.allocate_run(Vbn(aa * 1024), aa * 60).unwrap();
        }
        let mut built = RaidAgnosticCache::build(t.clone(), &bitmap).unwrap();
        let (hist, list) = built.to_topaa();
        let mut restored = RaidAgnosticCache::from_topaa(t, &hist, &list).unwrap();
        let picks = |c: &mut RaidAgnosticCache| {
            std::iter::from_fn(|| c.pick_best(&bitmap)).collect::<Vec<_>>()
        };
        // Every AA in a bin of its own: emptiest first.
        let expect: Vec<_> = (0..16).map(|a| (AaId(a), AaScore(1024 - a * 60))).collect();
        assert_eq!(picks(&mut built), expect);
        assert_eq!(picks(&mut restored), expect);
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
        assert_eq!(cache.hbps().audit(t.all_scores(&bitmap)), 0);
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
