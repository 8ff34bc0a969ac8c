//! CP-boundary batching of AA score changes.

use std::collections::HashMap;
use wafl_types::{AaId, ScoreDelta};

/// Accumulates the score increments (frees) and decrements (allocations)
/// of one consistency point, to be applied to a cache in a single batch at
/// the CP boundary (§3.3: "AA score updates resulting from frees and
/// allocations are delayed and performed efficiently in batched fashion at
/// the CP boundary").
#[derive(Clone, Debug, Default)]
pub struct ScoreDeltaBatch {
    deltas: HashMap<AaId, ScoreDelta>,
}

impl ScoreDeltaBatch {
    /// An empty batch.
    pub fn new() -> ScoreDeltaBatch {
        ScoreDeltaBatch::default()
    }

    /// Record `n` blocks allocated from `aa` during this CP.
    pub fn record_allocated(&mut self, aa: AaId, n: u32) {
        *self.deltas.entry(aa).or_default() += ScoreDelta::allocated(n);
    }

    /// Record `n` blocks freed back to `aa` during this CP.
    pub fn record_freed(&mut self, aa: AaId, n: u32) {
        *self.deltas.entry(aa).or_default() += ScoreDelta::freed(n);
    }

    /// Merge another batch (e.g. a per-thread batch from the parallel
    /// allocator) into this one.
    pub fn merge(&mut self, other: ScoreDeltaBatch) {
        for (aa, d) in other.deltas {
            *self.deltas.entry(aa).or_default() += d;
        }
    }

    /// Number of AAs with a pending change.
    pub fn touched_aas(&self) -> usize {
        self.deltas.len()
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Drain the batch as `(aa, delta)` pairs in ascending AA order,
    /// leaving it empty. Zero deltas (equal frees and allocations) are
    /// skipped — they cannot move an AA between heap positions or
    /// histogram bins.
    ///
    /// The order matters: the caches break score ties by arrival order,
    /// so it decides which of two equally good AAs is picked next. Sorted,
    /// it is a function of the batch's contents — not of the map's
    /// per-process hash seed or of the order shards recorded into it.
    pub fn drain(&mut self) -> impl Iterator<Item = (AaId, ScoreDelta)> {
        let mut deltas: Vec<_> = self.deltas.drain().filter(|(_, d)| !d.is_zero()).collect();
        deltas.sort_unstable_by_key(|&(aa, _)| aa);
        deltas.into_iter()
    }

    /// Iterate without draining.
    pub fn iter(&self) -> impl Iterator<Item = (AaId, ScoreDelta)> + '_ {
        self.deltas.iter().map(|(&aa, &d)| (aa, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_and_frees_net_out() {
        let mut b = ScoreDeltaBatch::new();
        b.record_allocated(AaId(1), 10);
        b.record_freed(AaId(1), 4);
        b.record_freed(AaId(2), 3);
        assert_eq!(b.touched_aas(), 2);
        let mut got: Vec<_> = b.drain().collect();
        got.sort_by_key(|&(aa, _)| aa);
        assert_eq!(
            got,
            vec![(AaId(1), ScoreDelta(-6)), (AaId(2), ScoreDelta(3))]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn zero_net_deltas_are_skipped() {
        let mut b = ScoreDeltaBatch::new();
        b.record_allocated(AaId(5), 8);
        b.record_freed(AaId(5), 8);
        assert_eq!(b.touched_aas(), 1);
        assert_eq!(b.drain().count(), 0);
    }

    #[test]
    fn merge_combines_per_thread_batches() {
        let mut a = ScoreDeltaBatch::new();
        a.record_allocated(AaId(1), 5);
        let mut b = ScoreDeltaBatch::new();
        b.record_freed(AaId(1), 2);
        b.record_allocated(AaId(2), 1);
        a.merge(b);
        let mut got: Vec<_> = a.drain().collect();
        got.sort_by_key(|&(aa, _)| aa);
        assert_eq!(
            got,
            vec![(AaId(1), ScoreDelta(-3)), (AaId(2), ScoreDelta(-1))]
        );
    }
}
