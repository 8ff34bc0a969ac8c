//! Property tests for the partitioned bulk mutator.
//!
//! `mutate_runs_partitioned` is the CP's apply primitive: sorted disjoint
//! runs, split at page boundaries and applied as one verified batch. It
//! exists purely as a faster spelling of a sequential
//! `allocate_run`/`free_run` loop over the same runs, so these tests pin
//! it to that loop — bit state, per-page counters, per-AA counters,
//! top-level total, and `DirtyStats` — and prove malformed input
//! (overlap, out-of-range, state conflicts) rejects without mutating
//! anything.

use proptest::prelude::*;
use wafl_bitmap::Bitmap;
use wafl_types::{Vbn, BITS_PER_BITMAP_BLOCK};

const SPACE: u64 = 5 * BITS_PER_BITMAP_BLOCK + 321;
const AA_BLOCKS: u64 = BITS_PER_BITMAP_BLOCK;

/// Turn arbitrary (start, len) pairs into the sorted, disjoint,
/// in-range run list the partitioned mutator requires, mirroring how the
/// CP engine builds one (sort, then drop whatever collides).
fn normalize(raw: &[(u64, u64)]) -> Vec<(Vbn, u64)> {
    let mut sorted: Vec<(u64, u64)> = raw
        .iter()
        .filter(|&&(s, l)| l > 0 && s + l <= SPACE)
        .copied()
        .collect();
    sorted.sort_unstable();
    let mut out: Vec<(Vbn, u64)> = Vec::new();
    let mut prev_end = 0u64;
    for (s, l) in sorted {
        if s >= prev_end {
            out.push((Vbn(s), l));
            prev_end = s + l;
        }
    }
    out
}

/// Assert every observable of `a` equals `b`.
fn assert_equivalent(a: &Bitmap, b: &Bitmap) {
    assert_eq!(a.free_blocks(), b.free_blocks());
    assert_eq!(a.page_free_counts(), b.page_free_counts());
    assert_eq!(a.aa_free_counts(AA_BLOCKS), b.aa_free_counts(AA_BLOCKS));
    for p in 0..a.page_count() {
        assert_eq!(
            a.page(p).unwrap().words(),
            b.page(p).unwrap().words(),
            "page {p} raw bits diverged"
        );
    }
    a.verify_summary();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Allocate-then-free cycles through the partitioned mutator match
    /// the sequential run-mutator loop.
    #[test]
    fn partitioned_matches_sequential_runs(
        raw in proptest::collection::vec(
            (0..SPACE, 1u64..3 * BITS_PER_BITMAP_BLOCK / 2),
            1..30,
        ),
    ) {
        let mut runs = normalize(&raw);
        if runs.is_empty() {
            runs.push((Vbn(0), 1)); // degenerate draw; keep the case alive
        }

        let mut part = Bitmap::new(SPACE);
        part.enable_aa_summary(AA_BLOCKS).unwrap();
        let mut seq = Bitmap::new(SPACE);
        seq.enable_aa_summary(AA_BLOCKS).unwrap();

        part.mutate_runs_partitioned(&runs, true).unwrap();
        for &(s, l) in &runs {
            seq.allocate_run(s, l).unwrap();
        }
        assert_equivalent(&part, &seq);
        prop_assert_eq!(part.take_dirty_stats(), seq.take_dirty_stats());

        part.mutate_runs_partitioned(&runs, false).unwrap();
        for &(s, l) in &runs {
            seq.free_run(s, l).unwrap();
        }
        assert_equivalent(&part, &seq);
        prop_assert_eq!(part.take_dirty_stats(), seq.take_dirty_stats());
        prop_assert_eq!(part.free_blocks(), SPACE);
    }

    /// A rejected partitioned apply — overlapping runs, a run leaving the
    /// space, or a state conflict anywhere in the batch — mutates
    /// nothing, even when the conflict sits in the last run.
    #[test]
    fn rejected_partitioned_apply_is_a_no_op(
        occupied in 0..SPACE,
        raw in proptest::collection::vec(
            (0..SPACE, 1u64..BITS_PER_BITMAP_BLOCK),
            1..12,
        ),
    ) {
        let mut runs = normalize(&raw);
        if runs.is_empty() {
            runs.push((Vbn(0), 1)); // degenerate draw; keep the case alive
        }
        let mut b = Bitmap::new(SPACE);
        b.enable_aa_summary(AA_BLOCKS).unwrap();
        b.allocate(Vbn(occupied)).unwrap();
        let before_free = b.free_blocks();
        let before_pages = b.page_free_counts().to_vec();

        let conflicts = runs
            .iter()
            .any(|&(s, l)| s.get() <= occupied && occupied < s.get() + l);
        let res = b.mutate_runs_partitioned(&runs, true);
        if conflicts {
            prop_assert!(res.is_err(), "allocating over an allocated bit must fail");
            prop_assert_eq!(b.free_blocks(), before_free);
            prop_assert_eq!(b.page_free_counts(), &before_pages[..]);
            b.verify_summary();
        } else {
            prop_assert!(res.is_ok());
            b.mutate_runs_partitioned(&runs, false).unwrap();
            prop_assert_eq!(b.free_blocks(), before_free);
            b.verify_summary();
        }
    }
}

/// Out-of-order and overlapping run lists are rejected up front (the
/// validation happens before any state check or store).
#[test]
fn malformed_run_lists_are_rejected() {
    let mut b = Bitmap::new(SPACE);
    b.enable_aa_summary(AA_BLOCKS).unwrap();
    // Overlap.
    assert!(b
        .mutate_runs_partitioned(&[(Vbn(0), 10), (Vbn(5), 10)], true)
        .is_err());
    // Out of order (caught as overlap of the sorted precondition).
    assert!(b
        .mutate_runs_partitioned(&[(Vbn(100), 10), (Vbn(0), 10)], true)
        .is_err());
    // Out of range.
    assert!(b
        .mutate_runs_partitioned(&[(Vbn(SPACE - 1), 10)], true)
        .is_err());
    // Nothing mutated by any of the rejections.
    assert_eq!(b.free_blocks(), SPACE);
    b.verify_summary();
}
