//! The RAID-aware AA cache: an indexed max-heap over all AAs of a RAID
//! group (§3.3.1).

use crate::batch::ScoreDeltaBatch;
use wafl_types::{AaId, AaScore, WaflError, WaflResult};

/// `pos` of an AA the cache has no authoritative score for: left out of
/// a partial TopAA seed and not yet reached by the background rebuild.
const UNKNOWN: usize = usize::MAX;
/// `pos` of an AA that is out of the ranking while the allocator drains
/// it. Its score is authoritative and kept current by `apply_batch`.
const OUT: usize = usize::MAX - 1;

/// Deterministic id scramble for equal-score tie-breaking.
#[inline]
fn scramble(id: u32) -> u32 {
    // Finalizer from MurmurHash3; bijective on u32.
    let mut x = id.wrapping_add(0x9E37_79B9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^= x >> 13;
    x = x.wrapping_mul(0xC2B2_AE35);
    x ^ (x >> 16)
}

/// An in-memory max-heap of all allocation areas of one RAID group,
/// ordered by score (§3.3.1).
///
/// * Memory grows linearly with per-device capacity and is independent of
///   the device count — the paper's §3.3.1 example is ~1 MiB per 16 TiB
///   device; [`RaidAwareCache::memory_bytes`] reports the equivalent here.
/// * Scores change only through [`RaidAwareCache::apply_batch`], the CP-
///   boundary rebalance ("the max-heap is rebalanced at the end of each CP
///   after updating the scores").
/// * After a crash the cache can be *seeded* from a TopAA metafile with
///   only the 512 best AAs ([`RaidAwareCache::seeded`]) and later completed
///   by a background bitmap walk ([`RaidAwareCache::absorb_rebuild`]).
///
/// The heap is an explicit array-backed binary heap with a position index
/// per AA, so score updates are `O(log n)` and peeking the best AA is
/// `O(1)` — the operations the write allocator performs every CP.
///
/// ```
/// use wafl_core::{RaidAwareCache, ScoreDeltaBatch};
/// use wafl_types::{AaId, AaScore};
///
/// let mut cache = RaidAwareCache::new_full(
///     vec![AaScore(120), AaScore(4000), AaScore(77)],
///     vec![4096; 3], // each AA holds 4096 blocks
/// ).unwrap();
/// assert_eq!(cache.best(), Some((AaId(1), AaScore(4000))));
///
/// // One CP's batched deltas, applied at the boundary (§3.3.1).
/// let mut batch = ScoreDeltaBatch::new();
/// batch.record_allocated(AaId(1), 4000); // drained
/// batch.record_freed(AaId(2), 900);      // overwrites freed blocks
/// cache.apply_batch(&mut batch);
/// assert_eq!(cache.best(), Some((AaId(2), AaScore(977))));
/// ```
pub struct RaidAwareCache {
    /// Current score per AA (`aa_count` entries). A seeded cache leaves
    /// the AAs it does not know at 0 plus the deltas seen since.
    scores: Vec<AaScore>,
    /// Maximum score (block count) per AA; the trailing AA may be short.
    max_scores: Vec<u32>,
    /// Binary max-heap of AA ids, ordered by `scores`.
    heap: Vec<AaId>,
    /// Position of each AA in `heap`, or `OUT`, or `UNKNOWN`.
    pos: Vec<usize>,
    /// AAs still `UNKNOWN` (nonzero between a partial TopAA seed and the
    /// completion of the background rebuild).
    unknown: usize,
}

impl RaidAwareCache {
    /// Build a complete cache from every AA's score. `scores[i]` belongs
    /// to `AaId(i)`; `max_scores[i]` is that AA's block count.
    pub fn new_full(scores: Vec<AaScore>, max_scores: Vec<u32>) -> WaflResult<RaidAwareCache> {
        if scores.len() != max_scores.len() {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "scores ({}) and max_scores ({}) length mismatch",
                    scores.len(),
                    max_scores.len()
                ),
            });
        }
        let n = scores.len();
        let mut cache = RaidAwareCache {
            scores,
            max_scores,
            heap: (0..n as u32).map(AaId).collect(),
            pos: (0..n).collect(),
            unknown: 0,
        };
        // Floyd heapify: O(n).
        for i in (0..n / 2).rev() {
            cache.sift_down(i);
        }
        Ok(cache)
    }

    /// Build a partial cache from TopAA seed entries: only the listed AAs
    /// participate until [`RaidAwareCache::absorb_rebuild`] supplies the
    /// rest (§3.4: "enough to seed the max-heap with high-quality AAs until
    /// background work can rebuild the entire cache").
    pub fn seeded(max_scores: Vec<u32>, entries: &[(AaId, AaScore)]) -> WaflResult<RaidAwareCache> {
        let n = max_scores.len();
        let mut cache = RaidAwareCache {
            scores: vec![AaScore(0); n],
            max_scores,
            heap: Vec::with_capacity(entries.len()),
            pos: vec![UNKNOWN; n],
            // Entries are checked distinct and in range below. A seed
            // that happens to cover every AA (small groups) is complete.
            unknown: n.saturating_sub(entries.len()),
        };
        for &(aa, score) in entries {
            if aa.index() >= n {
                return Err(WaflError::AaOutOfRange {
                    aa,
                    aa_count: n as u32,
                });
            }
            if cache.pos[aa.index()] != UNKNOWN {
                return Err(WaflError::CorruptMetafile {
                    reason: format!("duplicate {aa} in TopAA seed"),
                });
            }
            cache.scores[aa.index()] = cache.clamped(aa, score);
            cache.pos[aa.index()] = cache.heap.len();
            cache.heap.push(aa);
        }
        for i in (0..cache.heap.len() / 2).rev() {
            cache.sift_down(i);
        }
        Ok(cache)
    }

    /// Complete a seeded cache with authoritative scores from a background
    /// bitmap walk. Ranked AAs are corrected and unknown ones ranked; an
    /// AA that is out being drained takes its score and stays out — the
    /// allocator holds it, and ranking it would hand it out twice.
    pub fn absorb_rebuild(&mut self, all_scores: &[(AaId, AaScore)]) -> WaflResult<()> {
        for &(aa, score) in all_scores {
            if self.pos.get(aa.index()) == Some(&OUT) {
                self.scores[aa.index()] = self.clamped(aa, score);
            } else {
                self.insert(aa, score)?;
            }
        }
        Ok(())
    }

    /// Take `aa` out of the ranking at its authoritative `score`, to be
    /// drained: what [`RaidAwareCache::take_best`] does for the best AA,
    /// for the AA a mount finds the allocator was filling (§3.4). A
    /// partial seed does not know that AA — it was out when the seed was
    /// written.
    pub fn take(&mut self, aa: AaId, score: AaScore) -> WaflResult<()> {
        if aa.index() >= self.scores.len() {
            return Err(WaflError::AaOutOfRange {
                aa,
                aa_count: self.scores.len() as u32,
            });
        }
        match self.pos[aa.index()] {
            OUT => {}
            UNKNOWN => self.unknown -= 1,
            _ => self.remove(aa),
        }
        self.pos[aa.index()] = OUT;
        self.scores[aa.index()] = self.clamped(aa, score);
        Ok(())
    }

    /// Number of AAs currently tracked.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no AAs are tracked.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the cache has an authoritative score for every AA of the
    /// group, ranked or out being drained.
    pub fn is_complete(&self) -> bool {
        self.unknown == 0
    }

    /// The best (emptiest) AA and its score — the write allocator's query
    /// ("WAFL always targets writes to the emptiest AA", §3.1).
    pub fn best(&self) -> Option<(AaId, AaScore)> {
        self.heap.first().map(|&aa| (aa, self.scores[aa.index()]))
    }

    /// Remove and return the best AA. Used by segment cleaning, which
    /// claims each AA near the top of the heap exactly once (§3.3.1).
    pub fn take_best(&mut self) -> Option<(AaId, AaScore)> {
        let &best = self.heap.first()?;
        self.remove(best);
        Some((best, self.scores[best.index()]))
    }

    /// Rank `aa` at `score`: re-insert an AA removed via
    /// [`RaidAwareCache::take_best`], or correct one already ranked.
    pub fn insert(&mut self, aa: AaId, score: AaScore) -> WaflResult<()> {
        if aa.index() >= self.scores.len() {
            return Err(WaflError::AaOutOfRange {
                aa,
                aa_count: self.scores.len() as u32,
            });
        }
        match self.pos[aa.index()] {
            OUT => {}
            UNKNOWN => self.unknown -= 1,
            _ => {
                self.set_score(aa, score);
                return Ok(());
            }
        }
        self.scores[aa.index()] = self.clamped(aa, score);
        self.pos[aa.index()] = self.heap.len();
        self.heap.push(aa);
        self.sift_up(self.heap.len() - 1);
        Ok(())
    }

    /// Whether `aa` is currently ranked in the heap (not while it is being
    /// drained, nor before a seeded cache's background rebuild reaches it).
    pub fn contains(&self, aa: AaId) -> bool {
        self.pos.get(aa.index()).is_some_and(|&p| p < OUT)
    }

    /// Current score of `aa` (not authoritative for an AA a seeded cache
    /// does not know yet).
    pub fn score_of(&self, aa: AaId) -> AaScore {
        self.scores.get(aa.index()).copied().unwrap_or(AaScore(0))
    }

    /// Apply one CP's batched deltas and rebalance (§3.3.1). Deltas for
    /// unranked AAs update the stored score but do not insert them: one
    /// being drained is reinserted by its holder, one a seeded cache does
    /// not know by the background rebuild, with an authoritative value.
    pub fn apply_batch(&mut self, batch: &mut ScoreDeltaBatch) {
        for (aa, delta) in batch.drain() {
            if aa.index() >= self.scores.len() {
                continue; // stale delta from a grown/regrown group; ignore
            }
            let new = self.scores[aa.index()].apply(delta, self.max_scores[aa.index()]);
            if self.pos[aa.index()] < OUT {
                self.set_score(aa, new);
            } else {
                self.scores[aa.index()] = new;
            }
        }
    }

    /// The `k` best AAs in descending score order — what the TopAA
    /// metafile persists (§3.4). `O(n + k log n)` on a scratch copy; runs
    /// at CP frequency, not in the allocation path.
    pub fn top_k(&self, k: usize) -> Vec<(AaId, AaScore)> {
        let mut all: Vec<(AaId, AaScore)> = self
            .heap
            .iter()
            .map(|&aa| (aa, self.scores[aa.index()]))
            .collect();
        let k = k.min(all.len());
        if k == 0 {
            return Vec::new();
        }
        all.select_nth_unstable_by(k - 1, |a, b| Self::cmp_entries(b, a));
        all.truncate(k);
        all.sort_unstable_by(|a, b| Self::cmp_entries(b, a));
        all
    }

    /// Bytes of memory the cache uses for AA tracking (the §3.3.1 linear-
    /// in-capacity cost the RAID-agnostic design avoids).
    pub fn memory_bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<AaScore>()
            + self.max_scores.len() * std::mem::size_of::<u32>()
            + self.heap.capacity() * std::mem::size_of::<AaId>()
            + self.pos.len() * std::mem::size_of::<usize>()
    }

    /// `score` held to the AA's capacity.
    #[inline]
    fn clamped(&self, aa: AaId, score: AaScore) -> AaScore {
        AaScore(score.get().min(self.max_scores[aa.index()]))
    }

    #[inline]
    fn cmp_entries(a: &(AaId, AaScore), b: &(AaId, AaScore)) -> std::cmp::Ordering {
        // Score first; ties broken by a scrambled id. Real WAFL's heap
        // makes no adjacency promise among equal scores, and experiments
        // (Fig 9) depend on AA switches NOT being numerically contiguous,
        // so a deterministic scramble models the production behaviour.
        a.1.cmp(&b.1)
            .then_with(|| scramble(b.0.get()).cmp(&scramble(a.0.get())))
    }

    #[inline]
    fn greater(&self, a: AaId, b: AaId) -> bool {
        Self::cmp_entries(&(a, self.scores[a.index()]), &(b, self.scores[b.index()]))
            == std::cmp::Ordering::Greater
    }

    fn set_score(&mut self, aa: AaId, score: AaScore) {
        let old = self.scores[aa.index()];
        self.scores[aa.index()] = self.clamped(aa, score);
        let p = self.pos[aa.index()];
        debug_assert!(p < OUT);
        if self.scores[aa.index()] > old {
            self.sift_up(p);
        } else {
            self.sift_down(p);
        }
    }

    fn remove(&mut self, aa: AaId) {
        let p = self.pos[aa.index()];
        debug_assert!(p < OUT);
        let last = self.heap.len() - 1;
        self.swap(p, last);
        self.heap.pop();
        self.pos[aa.index()] = OUT;
        if p < self.heap.len() {
            self.sift_down(p);
            self.sift_up(p.min(self.heap.len() - 1));
        }
    }

    #[inline]
    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a;
        self.pos[self.heap[b].index()] = b;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.greater(self.heap[i], self.heap[parent]) {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < n && self.greater(self.heap[l], self.heap[m]) {
                m = l;
            }
            if r < n && self.greater(self.heap[r], self.heap[m]) {
                m = r;
            }
            if m == i {
                break;
            }
            self.swap(i, m);
            i = m;
        }
    }

    /// Divergences from `truth` (each AA's true score), `active` being the
    /// AA the allocator drains; 0 = exact. Counts each known score, ranked
    /// or held out, that is not true, each break in heap order or `pos`,
    /// and each AA held out xor active: a complete cache ranks every AA
    /// but the active one. Each caller passes the truth it trusts.
    pub fn audit(&self, truth: impl Fn(AaId) -> AaScore, active: Option<AaId>) -> u64 {
        let mut bad = self.structure_divergences();
        for (i, &p) in self.pos.iter().enumerate() {
            let aa = AaId(i as u32);
            bad += u64::from(p != UNKNOWN && self.scores[i] != truth(aa));
            bad += u64::from((p == OUT) != (active == Some(aa)));
        }
        bad
    }

    /// The half of [`RaidAwareCache::audit`] that needs no truth: heap
    /// order, `pos`, and the ranked and unknown counts.
    fn structure_divergences(&self) -> u64 {
        let mut bad = 0u64;
        for (i, &aa) in self.heap.iter().enumerate() {
            bad += u64::from(i > 0 && self.greater(aa, self.heap[(i - 1) / 2]));
            bad += u64::from(self.pos[aa.index()] != i);
        }
        bad += u64::from(self.pos.iter().filter(|&&p| p < OUT).count() != self.heap.len());
        bad + u64::from(self.pos.iter().filter(|&&p| p == UNKNOWN).count() != self.unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn scores(v: &[u32]) -> Vec<AaScore> {
        v.iter().map(|&s| AaScore(s)).collect()
    }

    fn assert_heap_invariants(c: &RaidAwareCache) {
        assert_eq!(c.structure_divergences(), 0);
    }

    #[test]
    fn best_is_max_score() {
        let c = RaidAwareCache::new_full(scores(&[5, 9, 3, 9, 1]), vec![10; 5]).unwrap();
        // Tie between AA1 and AA3 at 9: either wins, but the score is 9
        // and the choice is deterministic.
        let (aa, score) = c.best().unwrap();
        assert_eq!(score, AaScore(9));
        assert!(aa == AaId(1) || aa == AaId(3));
        assert_eq!(c.best(), Some((aa, score)), "deterministic");
        assert_eq!(c.len(), 5);
        assert!(c.is_complete());
    }

    #[test]
    fn audit_flags_one_corruption_at_a_time() {
        let truth = |aa: AaId| AaScore([5, 9, 3, 7][aa.index()]);
        let mut c = RaidAwareCache::new_full(scores(&[5, 9, 3, 7]), vec![10; 4]).unwrap();
        assert_eq!(c.audit(truth, None), 0);
        assert_eq!(c.audit(truth, Some(AaId(2))), 1, "ranked and active");
        assert_eq!(c.take_best(), Some((AaId(1), AaScore(9))));
        assert_eq!(c.audit(truth, Some(AaId(1))), 0);
        assert_eq!(c.audit(truth, None), 1, "held out, not active");
        c.scores[2] = AaScore(4);
        assert_eq!(c.audit(truth, Some(AaId(1))), 1, "a stale score");
        c.scores[2] = AaScore(3);
        let (top, leaf) = (c.heap[0], c.heap[2]);
        c.pos.swap(top.index(), leaf.index());
        assert_eq!(c.audit(truth, Some(AaId(1))), 2, "pos of two AAs");
        c.pos.swap(top.index(), leaf.index());
        c.heap.swap(0, 2);
        assert!(c.audit(truth, Some(AaId(1))) > 0, "heap order");
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(RaidAwareCache::new_full(scores(&[1, 2]), vec![10]).is_err());
    }

    #[test]
    fn apply_batch_rebalances() {
        let mut c = RaidAwareCache::new_full(scores(&[5, 9, 3]), vec![10; 3]).unwrap();
        let mut b = ScoreDeltaBatch::new();
        b.record_allocated(AaId(1), 8); // 9 -> 1
        b.record_freed(AaId(2), 6); // 3 -> 9
        c.apply_batch(&mut b);
        assert_eq!(c.best(), Some((AaId(2), AaScore(9))));
        assert_eq!(c.score_of(AaId(1)), AaScore(1));
        assert_heap_invariants(&c);
    }

    #[test]
    fn take_best_and_reinsert() {
        let mut c = RaidAwareCache::new_full(scores(&[5, 9, 3]), vec![10; 3]).unwrap();
        let (aa, s) = c.take_best().unwrap();
        assert_eq!((aa, s), (AaId(1), AaScore(9)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.best(), Some((AaId(0), AaScore(5))));
        // Cleaned AA comes back empty (max score).
        c.insert(AaId(1), AaScore(10)).unwrap();
        assert_eq!(c.best(), Some((AaId(1), AaScore(10))));
        assert_heap_invariants(&c);
    }

    #[test]
    fn top_k_descends() {
        let c = RaidAwareCache::new_full(scores(&[5, 9, 3, 7, 1, 8]), vec![10; 6]).unwrap();
        let top = c.top_k(3);
        assert_eq!(
            top,
            vec![
                (AaId(1), AaScore(9)),
                (AaId(5), AaScore(8)),
                (AaId(3), AaScore(7))
            ]
        );
        assert_eq!(c.top_k(100).len(), 6);
        assert_eq!(c.top_k(0), vec![]);
    }

    #[test]
    fn seeded_cache_serves_until_rebuild() {
        let max = vec![100u32; 1000];
        let seed = vec![(AaId(7), AaScore(90)), (AaId(3), AaScore(80))];
        let mut c = RaidAwareCache::seeded(max, &seed).unwrap();
        assert!(!c.is_complete());
        assert_eq!(c.len(), 2);
        assert_eq!(c.best(), Some((AaId(7), AaScore(90))));

        // Background rebuild: authoritative scores for all 1000 AAs.
        let all: Vec<(AaId, AaScore)> = (0..1000)
            .map(|i| (AaId(i), AaScore(if i == 500 { 99 } else { 10 })))
            .collect();
        c.absorb_rebuild(&all).unwrap();
        assert!(c.is_complete());
        assert_eq!(c.len(), 1000);
        assert_eq!(c.best(), Some((AaId(500), AaScore(99))));
    }

    #[test]
    fn rebuild_scores_an_aa_being_drained_without_ranking_it() {
        let all: Vec<(AaId, AaScore)> = (0..10).map(|i| (AaId(i), AaScore(10 + i))).collect();
        let seed = [(AaId(7), AaScore(90)), (AaId(3), AaScore(80))];
        let mut c = RaidAwareCache::seeded(vec![100; 10], &seed).unwrap();
        // The allocator holds two AAs: the best of the seed, and one the
        // seed does not know (a mount resuming the AA it was filling).
        assert_eq!(c.take_best(), Some((AaId(7), AaScore(90))));
        c.take(AaId(5), AaScore(40)).unwrap();
        assert_eq!(c.score_of(AaId(5)), AaScore(40));
        assert!(!c.is_complete());
        c.absorb_rebuild(&all).unwrap();
        assert!(c.is_complete(), "every AA has an authoritative score");
        assert_eq!(c.len(), 8);
        for held in [AaId(7), AaId(5)] {
            assert!(!c.contains(held), "{held} is held, not ranked");
            assert_eq!(c.score_of(held), AaScore(10 + held.get()));
        }
        assert_heap_invariants(&c);
        // Handing them back ranks them; the cache stayed complete
        // throughout, as a full one does across a take.
        c.insert(AaId(7), AaScore(1)).unwrap();
        c.insert(AaId(5), AaScore(2)).unwrap();
        assert_eq!(c.len(), 10);
        c.take_best().unwrap();
        assert!(c.is_complete());
        assert_heap_invariants(&c);
    }

    #[test]
    fn take_unranks_a_ranked_aa_and_rejects_one_out_of_range() {
        let mut c = RaidAwareCache::new_full(scores(&[5, 9, 3]), vec![10; 3]).unwrap();
        c.take(AaId(1), AaScore(99)).unwrap();
        assert!(!c.contains(AaId(1)));
        assert_eq!(c.score_of(AaId(1)), AaScore(10), "clamped to capacity");
        assert_eq!(c.best(), Some((AaId(0), AaScore(5))));
        assert!(c.is_complete());
        assert!(c.take(AaId(3), AaScore(1)).is_err());
        assert_heap_invariants(&c);
    }

    #[test]
    fn seeded_rejects_bad_entries() {
        assert!(RaidAwareCache::seeded(vec![10; 4], &[(AaId(4), AaScore(1))]).is_err());
        assert!(RaidAwareCache::seeded(
            vec![10; 4],
            &[(AaId(1), AaScore(1)), (AaId(1), AaScore(2))]
        )
        .is_err());
    }

    #[test]
    fn deltas_for_absent_aas_stick_after_rebuild_insert() {
        // A delta arriving while the AA is absent from a seeded cache must
        // not be lost — the stored score carries it.
        let mut c = RaidAwareCache::seeded(vec![100; 10], &[(AaId(0), AaScore(50))]).unwrap();
        let mut b = ScoreDeltaBatch::new();
        b.record_freed(AaId(5), 30);
        c.apply_batch(&mut b);
        assert_eq!(c.score_of(AaId(5)), AaScore(30));
        assert_eq!(c.len(), 1, "absent AA not inserted by a delta");
    }

    #[test]
    fn scores_clamp_to_aa_capacity() {
        let mut c = RaidAwareCache::new_full(scores(&[5]), vec![8]).unwrap();
        let mut b = ScoreDeltaBatch::new();
        b.record_freed(AaId(0), 100);
        c.apply_batch(&mut b);
        assert_eq!(c.score_of(AaId(0)), AaScore(8));
    }

    #[test]
    fn memory_is_linear_in_aa_count_only() {
        let small = RaidAwareCache::new_full(scores(&vec![1; 1000]), vec![10; 1000]).unwrap();
        let big = RaidAwareCache::new_full(scores(&vec![1; 10000]), vec![10; 10000]).unwrap();
        let ratio = big.memory_bytes() as f64 / small.memory_bytes() as f64;
        assert!((9.0..11.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn randomized_operations_preserve_invariants() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 300usize;
        let init: Vec<AaScore> = (0..n).map(|_| AaScore(rng.random_range(0..1000))).collect();
        let mut c = RaidAwareCache::new_full(init.clone(), vec![1000; n]).unwrap();
        let mut shadow: Vec<u32> = init.iter().map(|s| s.get()).collect();
        for _ in 0..2000 {
            let aa = rng.random_range(0..n as u32);
            let mut b = ScoreDeltaBatch::new();
            if rng.random_bool(0.5) {
                let d = rng.random_range(0..200);
                b.record_freed(AaId(aa), d);
                shadow[aa as usize] = (shadow[aa as usize] + d).min(1000);
            } else {
                let d = rng.random_range(0..200);
                b.record_allocated(AaId(aa), d);
                shadow[aa as usize] = shadow[aa as usize].saturating_sub(d);
            }
            c.apply_batch(&mut b);
        }
        assert_eq!(c.audit(|aa| AaScore(shadow[aa.index()]), None), 0);
        let best_shadow = shadow.iter().copied().max().unwrap();
        assert_eq!(c.best().unwrap().1, AaScore(best_shadow));
        for (i, &s) in shadow.iter().enumerate() {
            assert_eq!(c.score_of(AaId(i as u32)), AaScore(s));
        }
    }
}
