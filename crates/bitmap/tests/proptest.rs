//! Property-based tests for the bitmap metafile against a shadow model.

use proptest::prelude::*;
use std::collections::HashSet;
use wafl_bitmap::{scan, Bitmap};
use wafl_types::Vbn;

/// Operations to drive the bitmap with.
#[derive(Clone, Debug)]
enum Op {
    Allocate(u64),
    Free(u64),
    CountRange(u64, u64),
    FirstFree(u64),
}

fn op_strategy(space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..space).prop_map(Op::Allocate),
        (0..space).prop_map(Op::Free),
        (0..space, 0..space).prop_map(|(a, l)| Op::CountRange(a, l)),
        (0..space).prop_map(Op::FirstFree),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bitmap_matches_hashset_shadow(
        ops in proptest::collection::vec(op_strategy(100_000), 1..400)
    ) {
        let space = 100_000u64;
        let mut bitmap = Bitmap::new(space);
        let mut shadow: HashSet<u64> = HashSet::new(); // allocated blocks
        for op in ops {
            match op {
                Op::Allocate(v) => {
                    let r = bitmap.allocate(Vbn(v));
                    prop_assert_eq!(r.is_ok(), shadow.insert(v));
                }
                Op::Free(v) => {
                    let r = bitmap.free(Vbn(v));
                    prop_assert_eq!(r.is_ok(), shadow.remove(&v));
                }
                Op::CountRange(start, len) => {
                    let expected = (start..(start + len).min(space))
                        .filter(|v| !shadow.contains(v))
                        .count() as u32;
                    prop_assert_eq!(bitmap.free_count_range(Vbn(start), len), expected);
                }
                Op::FirstFree(from) => {
                    let expected = (from..space).find(|v| !shadow.contains(v)).map(Vbn);
                    prop_assert_eq!(bitmap.first_free_from(Vbn(from)), expected);
                }
            }
            prop_assert_eq!(bitmap.free_blocks(), space - shadow.len() as u64);
        }
    }

    #[test]
    fn scores_partition_free_space(
        allocs in proptest::collection::hash_set(0u64..200_000, 0..2000),
        aa_blocks in 1u64..50_000,
    ) {
        let space = 200_000u64;
        let mut bitmap = Bitmap::new(space);
        for &v in &allocs {
            bitmap.allocate(Vbn(v)).unwrap();
        }
        let seq = scan::scores_seq(&bitmap, aa_blocks);
        let total: u64 = seq.iter().map(|&(_, s)| s.get() as u64).sum();
        prop_assert_eq!(total, bitmap.free_blocks());
        prop_assert_eq!(seq.len() as u64, space.div_ceil(aa_blocks));
        // Each AA's score is bounded by its size.
        for (i, &(_, s)) in seq.iter().enumerate() {
            let start = i as u64 * aa_blocks;
            let len = aa_blocks.min(space - start);
            prop_assert!(s.get() as u64 <= len);
        }
    }

    #[test]
    fn dirty_pages_bounded_by_flips_and_pages(
        allocs in proptest::collection::vec(0u64..300_000, 1..300),
    ) {
        let mut bitmap = Bitmap::new(300_000);
        let mut flips = 0u64;
        for &v in &allocs {
            if bitmap.allocate(Vbn(v)).is_ok() {
                flips += 1;
            }
        }
        let stats = bitmap.take_dirty_stats();
        prop_assert_eq!(stats.bits_flipped, flips);
        prop_assert!(stats.pages_dirtied <= flips);
        prop_assert!(stats.pages_dirtied <= bitmap.page_count() as u64);
        if flips > 0 {
            prop_assert!(stats.pages_dirtied >= 1);
        }
    }
}
