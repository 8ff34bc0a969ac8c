//! Property test for the claim kernel.
//!
//! `claim_free_in_range` is how the file system allocates: it finds the
//! lowest free VBNs of a range and sets them in the same walk. Its
//! definition is the two-step spelling it replaced — collect
//! `free_runs_in_range`, truncate to the quota, allocate block by block
//! (`wafl_oracle::per_bit_allocate_run`, so the reference lives outside
//! the crate under test) — and this test holds it to that: bits, every
//! summary counter (each also against a popcount of its unit), at units
//! of a word, of 2 048 blocks and of a page, `DirtyStats`, the runs and
//! VBNs reported, and the `Claim` it returns.
//!
//! `shims/proptest` neither shrinks nor names the failing case, so each
//! case is drawn from one `seed` and every assertion prints it with the
//! index of the claim; `check(seed)` replays a case on its own.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use wafl_bitmap::Bitmap;
use wafl_oracle::per_bit_allocate_run;
use wafl_types::{Vbn, BITS_PER_BITMAP_BLOCK};

/// Two pages and a tail that ends mid-page and mid-word: the last unit
/// is partly padding at every unit size.
const SPACE: u64 = 2 * BITS_PER_BITMAP_BLOCK + 777;

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

/// One of the shapes the kernel's word loop has to get right, chosen and
/// filled in by `rng`; called twice with equal generators it builds two
/// equal bitmaps.
fn shaped_bitmap(rng: &mut TestRng) -> Bitmap {
    // Summary units of a word, 2 048 blocks and a page, and an AA size
    // drawn at random, which picks its unit by the constructor's rule
    // (most sizes count per page).
    let aa_blocks = match below(rng, 4) {
        0 => 64,
        1 => 2048,
        2 => BITS_PER_BITMAP_BLOCK,
        _ => 1 + below(rng, 5000),
    };
    let mut b = Bitmap::for_aa_tiling(SPACE, aa_blocks);
    match below(rng, 6) {
        // Empty, full, alternating.
        0 => {}
        1 => b.allocate_run(Vbn(0), SPACE).unwrap(),
        2 => (0..SPACE)
            .step_by(2)
            .for_each(|v| b.allocate(Vbn(v)).unwrap()),
        3 => {
            // Long free runs: a few allocated islands.
            for _ in 0..below(rng, 6) {
                let start = below(rng, SPACE);
                let _ = b.allocate_run(Vbn(start), (1 + below(rng, 300)).min(SPACE - start));
            }
        }
        4 => {
            // Nearly full: whole units read 0 in the summary.
            b.allocate_run(Vbn(0), SPACE).unwrap();
            for _ in 0..below(rng, 40) {
                let start = below(rng, SPACE);
                let _ = b.free_run(Vbn(start), (1 + below(rng, 5)).min(SPACE - start));
            }
        }
        _ => {
            // Fragmented: many short allocated runs, as after aging.
            for _ in 0..200 + below(rng, 3000) {
                let start = below(rng, SPACE);
                let _ = b.allocate_run(Vbn(start), (1 + below(rng, 9)).min(SPACE - start));
            }
        }
    }
    b.take_dirty_stats();
    b
}

/// Every unit counter against a popcount of its unit's raw bits.
fn assert_units_exact(b: &Bitmap, ctx: &str) {
    let unit = b.unit_blocks();
    for (u, &count) in b.unit_free_counts().iter().enumerate() {
        let truth = b.free_count_range_popcount(Vbn(u as u64 * unit), unit);
        assert_eq!(u32::from(count), truth, "{ctx}: unit {u} of {unit} blocks");
    }
}

fn check(seed: u64) {
    let mut got = shaped_bitmap(&mut TestRng::from_seed(seed));
    let mut want = shaped_bitmap(&mut TestRng::from_seed(seed));
    let mut rng = TestRng::from_seed(seed ^ 0x5EED);
    for i in 0..12 {
        // Starts and lengths that cross page boundaries, stop mid-word,
        // are empty, or reach past the end of the space.
        let start = below(&mut rng, SPACE + 50);
        let len = match below(&mut rng, 4) {
            0 => below(&mut rng, 3),
            1 => below(&mut rng, 200),
            _ => below(&mut rng, SPACE + 50),
        };
        let quota = match below(&mut rng, 8) {
            0 => 0,
            1 => below(&mut rng, SPACE),
            _ => 1 + below(&mut rng, 150),
        };
        let ctx = format!("seed {seed:#x} claim {i}: start {start} len {len} quota {quota}");

        let mut want_runs: Vec<(Vbn, u64)> = Vec::new();
        let mut left = quota;
        for (run_start, run_len) in want.free_runs_in_range(Vbn(start), len) {
            if left == 0 {
                break;
            }
            want_runs.push((run_start, run_len.min(left)));
            left -= run_len.min(left);
        }
        let mut want_vbns: Vec<Vbn> = Vec::new();
        for &(run_start, run_len) in &want_runs {
            per_bit_allocate_run(&mut want, run_start, run_len).unwrap();
            want_vbns.extend((run_start.get()..run_start.get() + run_len).map(Vbn));
        }

        // The kernel appends: what the vectors already hold must survive.
        let mut runs = vec![(Vbn(7), 7)];
        let mut vbns = vec![Vbn(7)];
        let claim = got.claim_free_in_range(Vbn(start), len, quota, &mut runs, &mut vbns);

        assert_eq!(&runs[1..], &want_runs[..], "{ctx}: runs");
        assert_eq!(&vbns[1..], &want_vbns[..], "{ctx}: vbns");
        assert_eq!(
            claim.last_taken,
            want_vbns.last().copied(),
            "{ctx}: last_taken"
        );
        assert_eq!(
            claim.more_free,
            want.free_runs_in_range(Vbn(start), len).next().is_some(),
            "{ctx}: more_free"
        );
        for p in 0..got.page_count() {
            assert_eq!(
                got.page(p).unwrap().words(),
                want.page(p).unwrap().words(),
                "{ctx}: page {p} bits"
            );
        }
        assert_eq!(got.unit_free_counts(), want.unit_free_counts(), "{ctx}");
        assert_eq!(got.free_blocks(), want.free_blocks(), "{ctx}");
        assert_units_exact(&got, &ctx);
        assert_eq!(got.summary_divergences(), 0, "{ctx}");
        // Every other claim closes a dirty window, so both a fresh and
        // an already-dirty page are seen.
        if i % 2 == 1 {
            assert_eq!(got.take_dirty_stats(), want.take_dirty_stats(), "{ctx}");
        }
    }
    assert_eq!(
        got.take_dirty_stats(),
        want.take_dirty_stats(),
        "seed {seed:#x}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn claim_matches_find_then_per_bit_allocate(seed in 0u64..u64::MAX) {
        check(seed);
    }
}

/// The corners by hand: a run that crosses a page boundary comes back as
/// one run, the quota cuts a word's free bits from the top, and a range
/// with nothing free reports a consumed range.
#[test]
fn claim_corner_cases() {
    let mut b = Bitmap::new(SPACE);
    b.allocate_run(Vbn(0), BITS_PER_BITMAP_BLOCK - 10).unwrap();
    let (mut runs, mut vbns) = (Vec::new(), Vec::new());
    let c = b.claim_free_in_range(Vbn(0), SPACE, 30, &mut runs, &mut vbns);
    assert_eq!(runs, vec![(Vbn(BITS_PER_BITMAP_BLOCK - 10), 30)]);
    assert_eq!(vbns.len(), 30);
    assert_eq!(
        (c.last_taken, c.more_free),
        (Some(Vbn(BITS_PER_BITMAP_BLOCK + 19)), true)
    );
    // Exactly the rest of the space: quota met, nothing left behind.
    let rest = b.free_blocks();
    let c = b.claim_free_in_range(Vbn(0), u64::MAX, rest, &mut runs, &mut vbns);
    assert_eq!((b.free_blocks(), c.more_free), (0, false));
    assert_eq!(c.last_taken, Some(Vbn(SPACE - 1)));
    // A full bitmap: nothing taken, range consumed, vectors untouched.
    let before = runs.len();
    let c = b.claim_free_in_range(Vbn(5), 1000, 8, &mut runs, &mut vbns);
    assert_eq!((c.last_taken, c.more_free), (None, false));
    assert_eq!(runs.len(), before);
    b.verify_summary();
}
