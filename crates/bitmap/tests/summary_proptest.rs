//! Property tests for the free-count summary.
//!
//! The summary (one `u16` counter per summary unit, plus the free-block
//! total) is redundant state maintained incrementally by
//! `allocate`/`free`/`extend`. These tests drive a bitmap through
//! arbitrary mutation sequences, at units of a word, of the benchmark
//! volumes' 2 048-block AA and of a page, on a space whose last unit is
//! partly padding, and re-derive every counter from the raw bits after
//! each mutation via the retained popcount ground-truth paths
//! (`free_count_range_popcount`, `scan::scores_popcount`), proving the
//! incremental maintenance never drifts and that the summary fast paths
//! are observationally identical to the pre-summary implementation.

use proptest::prelude::*;
use wafl_bitmap::{scan, Bitmap};
use wafl_types::{Vbn, BITS_PER_BITMAP_BLOCK};

/// Not a multiple of any unit: the last unit is partly padding.
const SPACE: u64 = 100_000;
const MAX_EXTEND: u64 = 90_000;

/// An AA size that is not a power of two: its bitmap counts per page,
/// and no AA boundary lines up with a unit's.
const ODD_AA: u64 = 7_008;

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

/// AA sizes: a word, 2 048 blocks and a page, each its bitmap's unit,
/// and any size at all, which picks a unit by the same rule.
fn aa_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(64u64),
        Just(2048u64),
        Just(BITS_PER_BITMAP_BLOCK),
        1u64..40_000,
    ]
}

/// Every unit counter and the free-block total against a popcount of the
/// raw bits.
fn assert_units_exact(bitmap: &Bitmap, ctx: &str) {
    let unit = bitmap.unit_blocks();
    let counts = bitmap.unit_free_counts();
    assert_eq!(
        counts.len() as u64,
        bitmap.space_len().div_ceil(unit),
        "{ctx}"
    );
    let mut total = 0u64;
    for (u, &count) in counts.iter().enumerate() {
        let truth = bitmap.free_count_range_popcount(Vbn(u as u64 * unit), unit);
        assert_eq!(u32::from(count), truth, "{ctx}: unit {u} counter drifted");
        total += u64::from(truth);
    }
    assert_eq!(bitmap.free_blocks(), total, "{ctx}: free_blocks drifted");
}

/// Apply `ops` to a bitmap for AAs of `aa_blocks`, ignoring rejected ones
/// (double allocate, double free, out-of-range) and checking every
/// counter after each. Returns the bitmap.
fn drive(aa_blocks: u64, ops: &[Op]) -> Bitmap {
    let mut bitmap = Bitmap::for_aa_tiling(SPACE, aa_blocks);
    let mut len = SPACE;
    for (i, op) in ops.iter().enumerate() {
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
        assert_units_exact(&bitmap, &format!("AA {aa_blocks}, op {i} {op:?}"));
    }
    bitmap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn counters_match_popcount_ground_truth(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        aa_blocks in aa_strategy(),
    ) {
        let bitmap = drive(aa_blocks, &ops);

        // The unit is the AA exactly when the AA is a power of two from
        // a word to a page; any other size counts per page.
        let fits = aa_blocks.is_power_of_two() && (64..=BITS_PER_BITMAP_BLOCK).contains(&aa_blocks);
        let unit = if fits { aa_blocks } else { BITS_PER_BITMAP_BLOCK };
        prop_assert_eq!(bitmap.unit_blocks(), unit);

        // The panicking full check agrees.
        bitmap.verify_summary();
        prop_assert_eq!(bitmap.summary_divergences(), 0);
    }

    #[test]
    fn scores_unchanged_from_presummary_implementation(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        aa_blocks in aa_strategy(),
        other_aa_blocks in 1u64..40_000,
    ) {
        let bitmap = drive(aa_blocks, &ops);

        // The bitmap's own AA size: one counter per AA when it is the
        // unit.
        let truth = scan::scores_popcount(&bitmap, aa_blocks);
        prop_assert_eq!(&scan::scores_seq(&bitmap, aa_blocks), &truth);

        // AA sizes that are not the unit: covered units' counters plus
        // popcounted edges, which must agree with the raw walk too.
        for other in [ODD_AA, other_aa_blocks] {
            let other_truth = scan::scores_popcount(&bitmap, other);
            prop_assert_eq!(&scan::scores_seq(&bitmap, other), &other_truth);
        }
    }
}
