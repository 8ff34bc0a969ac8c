//! Property tests for the two-level free-count summary.
//!
//! The summary (per-page `u16` counters plus optional per-AA counters) is
//! redundant state maintained incrementally by `allocate`/`free`/`extend`.
//! These tests drive a bitmap through arbitrary mutation sequences and
//! then re-derive every counter from the raw bits via the retained
//! popcount ground-truth paths (`free_count_range_popcount`,
//! `scan::scores_popcount`), proving the incremental maintenance never
//! drifts and that the summary fast paths are observationally identical
//! to the pre-summary implementation.

use proptest::prelude::*;
use wafl_bitmap::{scan, Bitmap};
use wafl_types::{Vbn, BITS_PER_BITMAP_BLOCK};

const SPACE: u64 = 100_000;
const MAX_EXTEND: u64 = 90_000;

/// Mutations to drive the bitmap with. VBNs may exceed the current space
/// (the op is then rejected by the bitmap and simply skipped), and
/// `Extend` grows by a delta so sequences stay monotonic.
#[derive(Clone, Debug)]
enum Op {
    Allocate(u64),
    Free(u64),
    Extend(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        10 => (0..SPACE + MAX_EXTEND).prop_map(Op::Allocate),
        10 => (0..SPACE + MAX_EXTEND).prop_map(Op::Free),
        1 => (1..MAX_EXTEND / 4).prop_map(Op::Extend),
    ]
}

/// Apply `ops`, ignoring rejected ones (double allocate, double free,
/// out-of-range). Returns the bitmap.
fn drive(aa_blocks: u64, ops: &[Op]) -> Bitmap {
    let mut bitmap = Bitmap::new(SPACE);
    bitmap.enable_aa_summary(aa_blocks).unwrap();
    let mut len = SPACE;
    for op in ops {
        match *op {
            Op::Allocate(v) => {
                let _ = bitmap.allocate(Vbn(v));
            }
            Op::Free(v) => {
                let _ = bitmap.free(Vbn(v));
            }
            Op::Extend(delta) => {
                len += delta;
                bitmap.extend(len).unwrap();
            }
        }
    }
    bitmap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counters_match_popcount_ground_truth(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        aa_blocks in 1u64..40_000,
    ) {
        let bitmap = drive(aa_blocks, &ops);

        // Per-page counters against a raw popcount of each page.
        let mut total = 0u64;
        for (p, &count) in bitmap.page_free_counts().iter().enumerate() {
            let truth = bitmap.free_count_range_popcount(
                Vbn(p as u64 * BITS_PER_BITMAP_BLOCK),
                BITS_PER_BITMAP_BLOCK,
            );
            prop_assert_eq!(count as u32, truth, "page {} counter drifted", p);
            total += truth as u64;
        }
        prop_assert_eq!(bitmap.free_blocks(), total);

        // Per-AA counters (they survive extend via rebuild).
        let counts = bitmap.aa_free_counts(aa_blocks).expect("summary enabled");
        prop_assert_eq!(
            counts.len() as u64,
            bitmap.space_len().div_ceil(aa_blocks)
        );
        for (aa, &count) in counts.iter().enumerate() {
            let truth =
                bitmap.free_count_range_popcount(Vbn(aa as u64 * aa_blocks), aa_blocks);
            prop_assert_eq!(count, truth, "AA {} counter drifted", aa);
        }

        // The panicking full check agrees.
        bitmap.verify_summary();
        prop_assert_eq!(bitmap.summary_divergences(), 0);
    }

    #[test]
    fn scores_unchanged_from_presummary_implementation(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        aa_blocks in 1u64..40_000,
        other_aa_blocks in 1u64..40_000,
    ) {
        let bitmap = drive(aa_blocks, &ops);
        let truth = scan::scores_popcount(&bitmap, aa_blocks);

        // Summary-enabled AA size: answered from the per-AA counters.
        prop_assert_eq!(&scan::scores_seq(&bitmap, aa_blocks), &truth);

        // Mismatched AA size: falls back to the per-page-accelerated
        // range counts, which must agree with the raw walk too.
        let other_truth = scan::scores_popcount(&bitmap, other_aa_blocks);
        prop_assert_eq!(&scan::scores_seq(&bitmap, other_aa_blocks), &other_truth);
    }
}
