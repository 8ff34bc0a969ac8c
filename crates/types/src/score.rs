//! Allocation-area scores and batched score deltas.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The score of an allocation area: the number of free blocks it contains
/// (§3.3: "the free space of an AA is quantified by its AA score").
///
/// Scores only ever change at consistency-point boundaries, where the frees
/// (increments) and allocations (decrements) accumulated during the CP are
/// applied as one batch.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AaScore(pub u32);

impl AaScore {
    /// A completely full AA (worst score).
    pub const FULL: AaScore = AaScore(0);

    /// Raw free-block count.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Apply a signed delta, saturating at zero and clamping to `max` (the
    /// AA's block count). Saturation rather than panic: a damaged TopAA
    /// metafile may seed stale scores, and the background rebuild corrects
    /// them — transiently inconsistent deltas must not crash the allocator.
    #[inline]
    pub fn apply(self, delta: ScoreDelta, max: u32) -> AaScore {
        let v = (self.0 as i64 + delta.0).clamp(0, max as i64);
        AaScore(v as u32)
    }

    /// Fraction of the AA that is free, given its total block count.
    #[inline]
    pub fn free_fraction(self, aa_blocks: u32) -> f64 {
        if aa_blocks == 0 {
            0.0
        } else {
            self.0 as f64 / aa_blocks as f64
        }
    }
}

impl fmt::Display for AaScore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A signed, batched change to an AA score. Positive for frees, negative
/// for allocations. Accumulated during a CP, applied at its boundary.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ScoreDelta(pub i64);

impl ScoreDelta {
    /// Record `n` blocks freed in the AA.
    #[inline]
    pub fn freed(n: u32) -> ScoreDelta {
        ScoreDelta(n as i64)
    }

    /// Record `n` blocks allocated from the AA.
    #[inline]
    pub fn allocated(n: u32) -> ScoreDelta {
        ScoreDelta(-(n as i64))
    }

    /// Merge another delta into this one (both happened within the same CP).
    #[inline]
    pub fn merge(self, other: ScoreDelta) -> ScoreDelta {
        ScoreDelta(self.0 + other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_clamps_to_range() {
        let max = 100;
        assert_eq!(AaScore(50).apply(ScoreDelta::freed(10), max), AaScore(60));
        assert_eq!(
            AaScore(50).apply(ScoreDelta::allocated(10), max),
            AaScore(40)
        );
        // Saturate at 0 and at max rather than wrap.
        assert_eq!(AaScore(5).apply(ScoreDelta::allocated(10), max), AaScore(0));
        assert_eq!(AaScore(95).apply(ScoreDelta::freed(10), max), AaScore(100));
    }

    #[test]
    fn merge_sums_frees_and_allocations() {
        let d = ScoreDelta::freed(7).merge(ScoreDelta::allocated(3));
        assert_eq!(d, ScoreDelta(4));
        assert_eq!(
            ScoreDelta::freed(3).merge(ScoreDelta::allocated(3)),
            ScoreDelta(0)
        );
    }

    #[test]
    fn free_fraction() {
        assert_eq!(AaScore(32).free_fraction(64), 0.5);
        assert_eq!(AaScore(0).free_fraction(0), 0.0);
    }
}
