//! Criterion benchmarks for the WAFL free-block-search reproduction.
//!
//! Micro-benches cover the paper's data structures at production scale
//! (millions of AAs): the HBPS (§3.3.2), the RAID-aware max-heap
//! (§3.3.1), bitmap scans, TopAA serialization (§3.4), the consistency-
//! point engine, and the two mount paths (a wall-clock analogue of
//! Figure 10). Ablation benches measure the design choices DESIGN.md §7
//! calls out: HBPS bin width, TopAA seed size, and full-heap versus
//! top-K tracking.
//!
//! Shared helpers for building aged inputs live here.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_bitmap::Bitmap;
use wafl_types::{AaId, AaScore, Vbn};

/// A bitmap with `fill` of its blocks randomly allocated.
pub fn aged_bitmap(space: u64, fill: f64, seed: u64) -> Bitmap {
    aged_bitmap_for_aa(space, wafl_types::BITS_PER_BITMAP_BLOCK, fill, seed)
}

/// [`aged_bitmap`] for AAs of `aa_blocks` ([`Bitmap::for_aa_tiling`]).
pub fn aged_bitmap_for_aa(space: u64, aa_blocks: u64, fill: f64, seed: u64) -> Bitmap {
    let mut b = Bitmap::for_aa_tiling(space, aa_blocks);
    let mut rng = StdRng::seed_from_u64(seed);
    let target = (space as f64 * fill) as u64;
    let mut done = 0;
    while done < target {
        if b.allocate(Vbn(rng.random_range(0..space))).is_ok() {
            done += 1;
        }
    }
    b
}

/// `n` AA scores drawn uniformly from `0..=max` (a fragmented-system
/// score distribution).
pub fn random_scores(n: u32, max: u32, seed: u64) -> Vec<(AaId, AaScore)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| (AaId(i), AaScore(rng.random_range(0..=max))))
        .collect()
}
