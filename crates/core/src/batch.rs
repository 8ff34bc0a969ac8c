//! CP-boundary batching of AA score changes.

use wafl_types::{AaId, ScoreDelta};

/// Accumulates the score increments (frees) and decrements (allocations)
/// of one consistency point, to be applied to a cache in a single batch at
/// the CP boundary (§3.3: "AA score updates resulting from frees and
/// allocations are delayed and performed efficiently in batched fashion at
/// the CP boundary").
///
/// Dense: one net delta per AA, indexed by [`AaId`], beside a bitset of
/// the AAs recorded into since the last drain. Recording is an indexed
/// add, and walking the bitset yields the AAs in ascending order with
/// nothing to hash and nothing to sort. Both tables grow to the highest
/// AA recorded (8 bytes and one bit per AA of the space) and are kept
/// across drains.
#[derive(Clone, Debug, Default)]
pub struct ScoreDeltaBatch {
    /// Net delta per AA; zero outside the touched set.
    deltas: Vec<i64>,
    /// Bit `aa % 64` of word `aa / 64`: `aa` was recorded into.
    touched: Vec<u64>,
    /// Bits set in `touched`.
    touched_count: usize,
}

impl ScoreDeltaBatch {
    /// An empty batch.
    pub fn new() -> ScoreDeltaBatch {
        ScoreDeltaBatch::default()
    }

    /// Record `n` blocks allocated from `aa` during this CP.
    #[inline]
    pub fn record_allocated(&mut self, aa: AaId, n: u32) {
        self.record(aa, ScoreDelta::allocated(n));
    }

    /// Record `n` blocks freed back to `aa` during this CP.
    #[inline]
    pub fn record_freed(&mut self, aa: AaId, n: u32) {
        self.record(aa, ScoreDelta::freed(n));
    }

    #[inline]
    fn record(&mut self, aa: AaId, delta: ScoreDelta) {
        let i = aa.index();
        if i >= self.deltas.len() {
            self.grow(i);
        }
        self.deltas[i] += delta.0;
        let (word, bit) = (&mut self.touched[i / 64], 1u64 << (i % 64));
        self.touched_count += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Grow both tables to hold AA `i`: the first record into a higher
    /// AA than any before, kept out of line.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, i: usize) {
        let len = (i + 1).next_multiple_of(64);
        self.deltas.resize(len, 0);
        self.touched.resize(len / 64, 0);
    }

    /// Number of AAs with a pending change, counting those whose frees
    /// and allocations net to zero.
    pub fn touched_aas(&self) -> usize {
        self.touched_count
    }

    /// True if nothing changed.
    pub fn is_empty(&self) -> bool {
        self.touched_count == 0
    }

    /// Drain the batch as `(aa, delta)` pairs in ascending AA order,
    /// leaving it empty. Zero deltas (equal frees and allocations) are
    /// skipped — they cannot move an AA between heap positions or
    /// histogram bins.
    ///
    /// The order matters: the caches break score ties by arrival order,
    /// so it decides which of two equally good AAs is picked next.
    /// Ascending, it is a function of the batch's contents — not of the
    /// order it was recorded in.
    pub fn drain(&mut self) -> impl Iterator<Item = (AaId, ScoreDelta)> {
        let mut out = Vec::with_capacity(self.touched_count);
        for (w, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let delta = std::mem::take(&mut self.deltas[i]);
                if delta != 0 {
                    out.push((AaId(i as u32), ScoreDelta(delta)));
                }
            }
        }
        self.touched_count = 0;
        out.into_iter()
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
        let got: Vec<_> = b.drain().collect();
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
        assert!(b.is_empty());
    }

    #[test]
    fn drain_is_ascending_across_words_and_growth() {
        let mut b = ScoreDeltaBatch::new();
        // Recorded descending, so every record but the first lands below
        // the table's end and the first two grow it.
        for aa in [700u32, 64, 63, 0, 5_000, 129] {
            b.record_freed(AaId(aa), aa + 1);
        }
        let got: Vec<_> = b.drain().collect();
        let want: Vec<_> = [0u32, 63, 64, 129, 700, 5_000]
            .iter()
            .map(|&aa| (AaId(aa), ScoreDelta(aa as i64 + 1)))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn a_drain_leaves_nothing_for_the_next_cp() {
        let mut b = ScoreDeltaBatch::new();
        for aa in 0..200 {
            b.record_allocated(AaId(aa), 1);
        }
        // Empty as soon as `drain` returns, however much of it is read.
        assert_eq!(b.drain().next(), Some((AaId(0), ScoreDelta(-1))));
        assert!(b.is_empty());
        assert_eq!(b.drain().count(), 0);
        b.record_freed(AaId(150), 2);
        assert_eq!(b.drain().collect::<Vec<_>>(), [(AaId(150), ScoreDelta(2))]);
    }
}
