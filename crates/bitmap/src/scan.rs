//! Whole-bitmap scans used to build and rebuild AA caches.
//!
//! Rebuilding an AA cache "requires a linear walk of the bitmap metafiles
//! in order to compute the scores of each AA" (§3.4). These walks are the
//! expensive path the TopAA metafile exists to avoid, so the harness both
//! uses them (for cold mounts and background rebuilds) and measures them.
//!
//! Each AA's score depends only on a contiguous bit range, and the
//! free-count summaries answer most of it without touching bitmap words.

use crate::bitmap::Bitmap;
use wafl_types::{AaId, AaScore};

/// Compute the score (free-block count) of every AA of `aa_blocks`
/// consecutive VBNs, in AA order. The trailing partial AA, if any, is
/// included; its score reflects only in-range blocks because the bitmap
/// pads its tail with allocated bits.
///
/// Each AA is one [`Bitmap::free_count_range`]: one counter load for an
/// AA that is the bitmap's summary unit ([`Bitmap::for_aa_tiling`]), and
/// otherwise the fully covered units' counters plus a popcount of the
/// partial edges.
///
/// See [`scores_popcount`] for the raw-walk ground truth. (`_seq` is
/// for the callers that import the name; there is no other variant.)
pub fn scores_seq(bitmap: &Bitmap, aa_blocks: u64) -> Vec<(AaId, AaScore)> {
    assert!(aa_blocks > 0, "aa_blocks must be positive");
    let aa_count = bitmap.space_len().div_ceil(aa_blocks);
    (0..aa_count)
        .map(|aa| {
            let start = wafl_types::Vbn(aa * aa_blocks);
            let score = bitmap.free_count_range(start, aa_blocks);
            (AaId(aa as u32), AaScore(score))
        })
        .collect()
}

/// Every AA's score by raw popcount walk — the pre-summary
/// implementation ("a linear walk of the bitmap metafiles", §3.4), never
/// consulting a counter. Property tests pin [`scores_seq`] to this, and
/// the `wafl-bench` bitmap benches measure the summary's speedup against
/// it.
pub fn scores_popcount(bitmap: &Bitmap, aa_blocks: u64) -> Vec<(AaId, AaScore)> {
    assert!(aa_blocks > 0, "aa_blocks must be positive");
    let aa_count = bitmap.space_len().div_ceil(aa_blocks);
    (0..aa_count)
        .map(|aa| {
            let start = wafl_types::Vbn(aa * aa_blocks);
            let score = bitmap.free_count_range_popcount(start, aa_blocks);
            (AaId(aa as u32), AaScore(score))
        })
        .collect()
}

/// Fragmentation summary of a VBN range: (free blocks, free runs, longest
/// run). Used by the experiments to characterise aged file systems.
pub fn fragmentation_in_range(
    bitmap: &Bitmap,
    start: wafl_types::Vbn,
    len: u64,
) -> (u64, u64, u64) {
    let end = (start.get() + len).min(bitmap.space_len());
    let mut free = 0u64;
    let mut runs = 0u64;
    let mut longest = 0u64;
    let mut pos = start;
    while let Some(run_start) = bitmap.first_free_from(pos) {
        if run_start.get() >= end {
            break;
        }
        // Extend the run.
        let mut run_end = run_start.get();
        while run_end < end && bitmap.is_free(wafl_types::Vbn(run_end)).unwrap_or(false) {
            run_end += 1;
        }
        let run_len = run_end - run_start.get();
        free += run_len;
        runs += 1;
        longest = longest.max(run_len);
        pos = wafl_types::Vbn(run_end + 1);
        if pos.get() >= end {
            break;
        }
    }
    (free, runs, longest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use wafl_types::Vbn;

    fn aged_bitmap(space: u64, fill: f64, seed: u64) -> Bitmap {
        let mut b = Bitmap::new(space);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let target = (space as f64 * fill) as u64;
        let mut allocated = 0;
        while allocated < target {
            let v = Vbn(rng.random_range(0..space));
            if b.allocate(v).is_ok() {
                allocated += 1;
            }
        }
        b
    }

    #[test]
    fn seq_scores_match_popcount_walk() {
        let b = aged_bitmap(10 * 32768, 0.4, 42);
        let seq = scores_seq(&b, 32768);
        assert_eq!(seq, scores_popcount(&b, 32768));
        assert_eq!(seq.len(), 10);
        let total: u64 = seq.iter().map(|&(_, s)| s.get() as u64).sum();
        assert_eq!(total, b.free_blocks());
    }

    #[test]
    fn scores_with_non_page_aa_size() {
        let b = aged_bitmap(100_000, 0.3, 7);
        let seq = scores_seq(&b, 12_345);
        assert_eq!(seq, scores_popcount(&b, 12_345));
        assert_eq!(seq.len(), 100_000_usize.div_ceil(12_345));
        let total: u64 = seq.iter().map(|&(_, s)| s.get() as u64).sum();
        assert_eq!(total, b.free_blocks());
    }

    #[test]
    fn page_free_counts_match_range_queries() {
        let b = aged_bitmap(3 * 32768, 0.5, 3);
        let counts = b.unit_free_counts();
        assert_eq!(counts.len(), 3, "a plain bitmap counts per page");
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(
                u32::from(c),
                b.free_count_range(Vbn(i as u64 * 32768), 32768)
            );
        }
    }

    #[test]
    fn fragmentation_summary() {
        let mut b = Bitmap::new(1000);
        for v in 0..1000 {
            b.allocate(Vbn(v)).unwrap();
        }
        for v in [10u64, 11, 12, 500, 900, 901] {
            b.free(Vbn(v)).unwrap();
        }
        let (free, runs, longest) = fragmentation_in_range(&b, Vbn(0), 1000);
        assert_eq!(free, 6);
        assert_eq!(runs, 3);
        assert_eq!(longest, 3);
    }

    #[test]
    fn fragmentation_of_empty_space_is_one_run() {
        let b = Bitmap::new(5000);
        let (free, runs, longest) = fragmentation_in_range(&b, Vbn(0), 5000);
        assert_eq!((free, runs, longest), (5000, 1, 5000));
    }
}
