//! Property tests for the bulk run mutators.
//!
//! `allocate_run`/`free_run` exist purely as a faster spelling of the
//! per-bit `allocate`/`free` loop (whole-word bit stores, one summary
//! update per touched unit). These tests prove the two spellings are
//! observationally identical — bit state, unit counters (each also
//! against a popcount), top-level total, and `DirtyStats` accounting — on
//! random runs that cross word, unit and page boundaries, at units of a
//! word, of 2 048 blocks and of a page, and that a failed bulk call
//! mutates nothing. The per-bit reference loop comes from `wafl-oracle`
//! (`per_bit_allocate_run`/`per_bit_free_run`), keeping the definition
//! of "correct" outside the crate under test.
//!
//! The same goes for the searches the mutators and the allocator's drain
//! lean on (`first_allocated_in`, `first_free_in`, `free_runs_in_range`),
//! which stop at their first hit and at their range's end, for
//! `sort_vbns`, which orders the delayed-free log's pages, and for the
//! batch free `free_batch`, which takes a CP's frees in the order they
//! arrive: each is checked here against the obvious per-bit loop,
//! `sort_unstable` or one `free` per VBN.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wafl_bitmap::{sort_vbns, Bitmap, DirtyStats};
use wafl_oracle::{per_bit_allocate_run, per_bit_free_run};
use wafl_types::{Vbn, WaflError, BITS_PER_BITMAP_BLOCK};

/// The last unit is partly padding at every unit size.
const SPACE: u64 = 3 * BITS_PER_BITMAP_BLOCK + 777;

/// Summary units: a word, the benchmark volumes' 2 048-block AA, a page.
fn unit_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![Just(64u64), Just(2048u64), Just(BITS_PER_BITMAP_BLOCK)]
}

/// Assert every observable of `a` equals `b` (bits, counters, totals),
/// and every unit counter of `a` its popcount.
fn assert_equivalent(a: &Bitmap, b: &Bitmap) {
    assert_eq!(a.free_blocks(), b.free_blocks());
    assert_eq!(a.unit_free_counts(), b.unit_free_counts());
    let unit = a.unit_blocks();
    for (u, &count) in a.unit_free_counts().iter().enumerate() {
        let truth = a.free_count_range_popcount(Vbn(u as u64 * unit), unit);
        assert_eq!(u32::from(count), truth, "unit {u} of {unit} blocks");
    }
    for p in 0..a.page_count() {
        assert_eq!(
            a.page(p).unwrap().words(),
            b.page(p).unwrap().words(),
            "page {p} raw bits diverged"
        );
    }
    a.verify_summary();
}

/// A bitmap with `runs` allocated, longest first; a run overlapping an
/// earlier one is dropped whole. Short runs fragment the space, long
/// ones fill whole pages.
fn bitmap_with_allocated(runs: &[(u64, u64)]) -> Bitmap {
    let mut b = Bitmap::new(SPACE);
    let mut runs = runs.to_vec();
    runs.sort_by_key(|&(_, len)| std::cmp::Reverse(len));
    for (start, len) in runs {
        let _ = b.allocate_run(Vbn(start), len.min(SPACE - start));
    }
    b
}

/// A full bitmap with summary units of `unit` blocks, the `holes` runs
/// freed, and its `DirtyStats` taken: the state a CP frees into.
fn bitmap_with_holes(holes: &[(u64, u64)], unit: u64) -> Bitmap {
    let mut b = Bitmap::for_aa_tiling(SPACE, unit);
    b.allocate_run(Vbn(0), SPACE).unwrap();
    for &(start, len) in holes {
        for v in start..(start + len).min(SPACE) {
            let _ = b.free(Vbn(v));
        }
    }
    b.take_dirty_stats();
    b
}

/// `ascending` in the orders a CP's frees arrive in: shuffled,
/// ascending, descending, and as a RAID group of four devices writes
/// them, chains of eight blocks from each device in turn.
fn arrival_orders(ascending: &[Vbn], seed: u64) -> [Vec<Vbn>; 4] {
    let mut random = ascending.to_vec();
    random.shuffle(&mut StdRng::seed_from_u64(seed));
    let device = |v: &Vbn| (v.get() * 4 / SPACE) as usize;
    let mut chains: [Vec<&[Vbn]>; 4] = Default::default();
    for (d, chain) in chains.iter_mut().enumerate() {
        let lo = ascending.partition_point(|v| device(v) < d);
        let hi = ascending.partition_point(|v| device(v) <= d);
        *chain = ascending[lo..hi].chunks(8).collect();
    }
    let longest = chains.iter().map(Vec::len).max().unwrap_or(0);
    let interleaved = (0..longest)
        .flat_map(|k| chains.iter().filter_map(move |c| c.get(k)))
        .flat_map(|chain| chain.iter().copied())
        .collect();
    [
        random,
        ascending.to_vec(),
        ascending.iter().rev().copied().collect(),
        interleaved,
    ]
}

/// Strategy for [`bitmap_with_allocated`].
fn allocated_runs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec(
        (
            0..SPACE,
            prop_oneof![4 => 1u64..130, 1 => 1u64..2 * BITS_PER_BITMAP_BLOCK],
        ),
        0..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The in-page range probes return the first bit in the wanted state
    /// inside `start..end` and nothing outside it, for ranges that start
    /// and end mid-word.
    #[test]
    fn range_probes_match_per_bit_scan(
        runs in allocated_runs(),
        ranges in proptest::collection::vec(
            (0..BITS_PER_BITMAP_BLOCK, 0..BITS_PER_BITMAP_BLOCK + 1),
            1..50,
        ),
    ) {
        let b = bitmap_with_allocated(&runs);
        for (i, &(x, y)) in ranges.iter().enumerate() {
            let (start, end) = (x.min(y), x.max(y));
            let page = b.page(i % b.page_count()).unwrap();
            let first = |free: bool| (start..end).find(|&bit| page.is_free(bit) == free);
            prop_assert_eq!(page.first_allocated_in(start, end), first(false));
            prop_assert_eq!(page.first_free_in(start, end), first(true));
        }
    }

    /// `free_runs_in_range` yields exactly the maximal free runs of its
    /// range, clipped to it: ranges start and end mid-word and mid-page,
    /// runs cross page boundaries, and free or allocated bits just
    /// outside the range never leak into the result.
    #[test]
    fn free_runs_in_range_match_per_bit_scan(
        runs in allocated_runs(),
        ranges in proptest::collection::vec((0..SPACE + 50, 0u64..SPACE + 50), 1..20),
    ) {
        let b = bitmap_with_allocated(&runs);
        for &(start, len) in &ranges {
            let end = (start + len).min(SPACE);
            let mut want: Vec<(Vbn, u64)> = Vec::new();
            let mut open: Option<u64> = None;
            for v in start..end {
                match (b.is_free(Vbn(v)).unwrap(), open) {
                    (true, None) => open = Some(v),
                    (false, Some(s)) => {
                        want.push((Vbn(s), v - s));
                        open = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = open {
                want.push((Vbn(s), end - s));
            }
            let got: Vec<(Vbn, u64)> = b.free_runs_in_range(Vbn(start), len).collect();
            prop_assert_eq!(got, want, "range {}+{}", start, len);
        }
    }

    /// `sort_vbns` is `sort_unstable` on every input shape the CP feeds
    /// it: random, already ascending, two ascending runs (a sequential
    /// overwrite that wrapped), descending, with duplicates, and with
    /// keys beyond 2^32 up to the top byte.
    #[test]
    fn sort_vbns_matches_sort_unstable(
        keys in proptest::collection::vec(
            prop_oneof![0u64..5_000, 0u64..1 << 23, (1u64 << 32)..(1u64 << 45), u64::MAX - 9..u64::MAX],
            0..600,
        ),
        split in 0usize..600,
    ) {
        let check = |input: Vec<u64>| {
            let mut got: Vec<Vbn> = input.into_iter().map(Vbn).collect();
            let mut want = got.clone();
            want.sort_unstable();
            sort_vbns(&mut got);
            assert_eq!(got, want);
        };
        let mut ascending = keys.clone();
        ascending.sort_unstable();
        let split = split.min(ascending.len());
        let two_runs = [&ascending[split..], &ascending[..split]].concat();
        check(keys);
        check(two_runs);
        check(ascending.iter().rev().copied().collect());
        check(ascending);
    }

    /// `free_batch` leaves what one `free` per VBN leaves, bits, counters
    /// and `DirtyStats`, on every order a CP frees in: random,
    /// ascending, descending, and a RAID group's device chains
    /// interleaved. The summary units are a page, 2 048 blocks and one
    /// word, where each group of a word's VBNs is a whole unit.
    #[test]
    fn free_batch_matches_per_block_free(
        holes in proptest::collection::vec((0..SPACE, 1u64..300), 0..20),
        picks in proptest::collection::hash_set(0..SPACE, 1..1500),
        unit in unit_strategy(),
        seed in 0..u64::MAX,
    ) {
        let mut picks: Vec<Vbn> = picks.into_iter().map(Vbn).collect();
        picks.sort_unstable();
        let build = || {
            let b = bitmap_with_holes(&holes, unit);
            let frees: Vec<Vbn> = picks.iter().copied().filter(|&v| !b.is_free(v).unwrap()).collect();
            (b, frees)
        };
        let (_, ascending) = build();
        for batch in arrival_orders(&ascending, seed) {
            let (mut kernel, _) = build();
            let (mut reference, _) = build();
            kernel.free_batch(&batch).unwrap();
            for &v in &batch {
                reference.free(v).unwrap();
            }
            assert_equivalent(&kernel, &reference);
            prop_assert_eq!(kernel.take_dirty_stats(), reference.take_dirty_stats());
        }
    }

    /// A refused `free_batch` names the VBN one `free` per VBN would have
    /// stopped at and changes nothing, whether the bad VBN is free and
    /// comes first, in the middle or last, is free and shares a word with
    /// the good VBN before it, or repeats a VBN the batch freed earlier
    /// on or just before it.
    #[test]
    fn refused_free_batch_is_a_no_op(
        holes in proptest::collection::vec((0..SPACE, 1u64..300), 1..20),
        picks in proptest::collection::hash_set(0..SPACE, 2..400),
        unit in unit_strategy(),
        at in 0usize..6,
        seed in 0..u64::MAX,
    ) {
        let mut untouched = bitmap_with_holes(&holes, unit);
        let is_free = |v: u64| untouched.is_free(Vbn(v)).unwrap_or(false);
        // A hole's edge: an allocated VBN whose word neighbour is free.
        let edge = (0..SPACE).find(|&v| !is_free(v) && is_free(v ^ 1)).map(Vbn);
        let Some((edge, free_vbn)) = edge.map(|v| (v, Vbn(v.get() ^ 1))) else {
            continue;
        };
        let mut good: Vec<Vbn> = picks
            .into_iter()
            .map(Vbn)
            .filter(|&v| !is_free(v.get()) && v != edge)
            .collect();
        if good.len() < 2 {
            continue;
        }
        good.sort_unstable();
        good.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut batch = good.clone();
        let mid = batch.len() / 2;
        match at {
            0 => batch.insert(0, free_vbn),
            1 => batch.insert(mid, free_vbn),
            2 => batch.push(free_vbn),
            3 => batch.splice(mid..mid, [edge, free_vbn]).for_each(drop),
            4 => batch.push(good[0]),
            _ => batch.insert(mid, good[mid]),
        }
        let mut reference = bitmap_with_holes(&holes, unit);
        let want = batch
            .iter()
            .find(|&&v| reference.free(v).is_err())
            .copied()
            .unwrap();
        let mut kernel = bitmap_with_holes(&holes, unit);
        let err = kernel.free_batch(&batch).unwrap_err();
        prop_assert!(
            matches!(err, WaflError::BitmapStateMismatch { vbn, expected_free: false } if vbn == want),
            "{:?}, want {:?}", err, want
        );
        assert_equivalent(&kernel, &untouched);
        // No dirty mark survives the refusal either: a VBN the refused
        // batch cleared and restored dirties its page afresh.
        kernel.free(batch[0]).ok();
        untouched.free(batch[0]).ok();
        prop_assert_eq!(kernel.take_dirty_stats(), untouched.take_dirty_stats());
    }

    /// Interleaved bulk and per-bit mutations on two bitmaps stay
    /// bit-for-bit and counter-for-counter identical. Runs are drawn to
    /// cross word boundaries routinely and unit and page boundaries
    /// often.
    #[test]
    fn run_mutators_match_per_bit_loop(
        runs in proptest::collection::vec(
            (0..SPACE, 1u64..2 * BITS_PER_BITMAP_BLOCK),
            1..40,
        ),
        unit in unit_strategy(),
    ) {
        let mut bulk = Bitmap::for_aa_tiling(SPACE, unit);
        let mut perbit = Bitmap::for_aa_tiling(SPACE, unit);

        for (i, &(start, len)) in runs.iter().enumerate() {
            // Alternate allocate/free so both directions get coverage;
            // reject (and skip) runs whose state doesn't match, checking
            // both spellings agree on acceptance.
            let alloc = i % 2 == 0;
            let bulk_res = if alloc {
                bulk.allocate_run(Vbn(start), len)
            } else {
                bulk.free_run(Vbn(start), len)
            };
            let mut perbit_res = Ok(());
            if bulk_res.is_ok() {
                if alloc {
                    per_bit_allocate_run(&mut perbit, Vbn(start), len).unwrap();
                } else {
                    per_bit_free_run(&mut perbit, Vbn(start), len).unwrap();
                }
            } else {
                // The per-bit loop must also refuse somewhere in the run
                // (same precondition); probe without mutating.
                perbit_res = (start..start + len).try_for_each(|v| {
                    match perbit.is_free(Vbn(v)) {
                        Ok(free) if free == alloc => Ok(()),
                        _ => Err(()),
                    }
                });
                prop_assert!(perbit_res.is_err(), "bulk rejected a run per-bit accepts");
            }
            let _ = perbit_res;
            assert_equivalent(&bulk, &perbit);
            // DirtyStats must agree after every step too: bulk counts one
            // dirtied page per touched page per window and one bit flip
            // per block, exactly like the loop.
            prop_assert_eq!(bulk.take_dirty_stats(), perbit.take_dirty_stats());
        }
    }

    /// A rejected bulk call (state conflict or out of range) leaves the
    /// bitmap untouched — counters, bits, and dirty stats.
    #[test]
    fn failed_run_mutation_is_a_no_op(
        occupied in 0..SPACE,
        start in 0..SPACE + 100,
        len in 1u64..BITS_PER_BITMAP_BLOCK,
    ) {
        let mut b = Bitmap::for_aa_tiling(SPACE, 4096);
        b.allocate(Vbn(occupied)).unwrap();
        let before_free = b.free_blocks();
        let before_units = b.unit_free_counts().to_vec();

        // Force a conflict: allocating across `occupied`, or any run that
        // leaves the space, must fail atomically.
        let conflict = start <= occupied && occupied < start.saturating_add(len);
        let out_of_range = start.saturating_add(len) > SPACE;
        let res = b.allocate_run(Vbn(start), len);
        if conflict || out_of_range {
            prop_assert!(res.is_err());
            prop_assert_eq!(b.free_blocks(), before_free);
            prop_assert_eq!(b.unit_free_counts(), &before_units[..]);
            b.verify_summary();
        } else {
            prop_assert!(res.is_ok());
            b.free_run(Vbn(start), len).unwrap();
            prop_assert_eq!(b.free_blocks(), before_free);
            b.verify_summary();
        }
    }
}

/// A duplicate survives the ordering helper, so the batch free still
/// sees it, rejects the batch as a double free, and changes nothing.
#[test]
fn duplicate_vbn_is_still_rejected_after_sorting() {
    let mut b = Bitmap::for_aa_tiling(SPACE, 4096);
    b.allocate_run(Vbn(0), 40_000).unwrap();
    b.take_dirty_stats();
    let before_units = b.unit_free_counts().to_vec();
    let mut batch: Vec<Vbn> = [39_000u64, 7, 33_000, 70, 7, 12].map(Vbn).to_vec();
    sort_vbns(&mut batch);
    assert!(b.free_sorted_blocks(&batch).is_err());
    assert_eq!(b.unit_free_counts(), &before_units[..]);
    assert_eq!(b.take_dirty_stats(), DirtyStats::default());
    b.verify_summary();
    batch.dedup();
    b.free_sorted_blocks(&batch).unwrap();
    assert_eq!(b.free_blocks(), SPACE - 40_000 + 5);
}
