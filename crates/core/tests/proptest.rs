//! Property-based tests for the AA caches against shadow models.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use wafl_core::{topaa, Hbps, HbpsConfig, RaidAwareCache, ScoreDeltaBatch};
use wafl_types::{AaId, AaScore, ScoreDelta};

// ---------------------------------------------------------------------
// RAID-aware max-heap vs a naive shadow map
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum HeapOp {
    Delta(u32, i32),
    TakeBestAndReinsert,
}

fn heap_op(n: u32) -> impl Strategy<Value = HeapOp> {
    prop_oneof![
        (0..n, -500i32..500).prop_map(|(aa, d)| HeapOp::Delta(aa, d)),
        Just(HeapOp::TakeBestAndReinsert),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heap_matches_shadow(
        init in proptest::collection::vec(0u32..=1000, 50..200),
        ops in proptest::collection::vec(heap_op(50), 1..200),
    ) {
        let n = init.len().min(50);
        let init = &init[..n];
        let max = 1000u32;
        let mut cache = RaidAwareCache::new_full(
            init.iter().map(|&s| AaScore(s)).collect(),
            vec![max; n],
        ).unwrap();
        let mut shadow: Vec<u32> = init.to_vec();
        for op in ops {
            match op {
                HeapOp::Delta(aa, d) => {
                    let aa = aa % n as u32;
                    let mut batch = ScoreDeltaBatch::new();
                    if d >= 0 {
                        batch.record_freed(AaId(aa), d as u32);
                        shadow[aa as usize] = (shadow[aa as usize] + d as u32).min(max);
                    } else {
                        batch.record_allocated(AaId(aa), (-d) as u32);
                        shadow[aa as usize] =
                            shadow[aa as usize].saturating_sub((-d) as u32);
                    }
                    cache.apply_batch(&mut batch);
                }
                HeapOp::TakeBestAndReinsert => {
                    let (aa, score) = cache.take_best().unwrap();
                    prop_assert_eq!(score.get(), shadow[aa.index()]);
                    cache.insert(aa, score).unwrap();
                }
            }
            // The heap's best always carries the max shadow score.
            let best = cache.best().unwrap();
            let max_shadow = shadow.iter().copied().max().unwrap();
            prop_assert_eq!(best.1.get(), max_shadow);
        }
        // Every score agrees, and the heap is complete and sound.
        prop_assert!(cache.is_complete());
        prop_assert_eq!(cache.audit(|aa| AaScore(shadow[aa.index()]), None), 0);
    }

    #[test]
    fn top_k_is_truly_the_top(
        scores in proptest::collection::vec(0u32..=5000, 1..600),
        k in 1usize..700,
    ) {
        let n = scores.len();
        let cache = RaidAwareCache::new_full(
            scores.iter().map(|&s| AaScore(s)).collect(),
            vec![5000; n],
        ).unwrap();
        let top = cache.top_k(k);
        prop_assert_eq!(top.len(), k.min(n));
        // Descending, and no excluded AA beats an included one.
        prop_assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        if let Some(&(_, cutoff)) = top.last() {
            let included: std::collections::HashSet<u32> =
                top.iter().map(|&(aa, _)| aa.get()).collect();
            for (i, &s) in scores.iter().enumerate() {
                if !included.contains(&(i as u32)) {
                    prop_assert!(AaScore(s) <= cutoff);
                }
            }
        }
    }

    #[test]
    fn topaa_round_trip_any_cache(
        scores in proptest::collection::vec(0u32..=100_000, 1..2000),
    ) {
        let n = scores.len();
        let cache = RaidAwareCache::new_full(
            scores.iter().map(|&s| AaScore(s)).collect(),
            vec![u32::MAX; n],
        ).unwrap();
        let block = topaa::serialize_raid_aware(&cache);
        let entries = topaa::deserialize_raid_aware(&block).unwrap();
        prop_assert_eq!(entries.len(), n.min(wafl_types::TOPAA_RAID_AWARE_ENTRIES));
        // Entries descend and match top_k.
        let expect = cache.top_k(wafl_types::TOPAA_RAID_AWARE_ENTRIES);
        prop_assert_eq!(entries, expect);
    }
}

// ---------------------------------------------------------------------
// HBPS vs a shadow multiset of scores
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum HbpsOp {
    ScoreChange(u32, u32),
    TakeBest,
}

fn hbps_op(n: u32, max: u32) -> impl Strategy<Value = HbpsOp> {
    prop_oneof![
        3 => (0..n, 0..=max).prop_map(|(aa, s)| HbpsOp::ScoreChange(aa, s)),
        1 => Just(HbpsOp::TakeBest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hbps_histogram_tracks_all_aas_and_picks_within_one_bin(
        init in proptest::collection::vec(0u32..=3200, 20..300),
        ops in proptest::collection::vec(hbps_op(300, 3200), 1..300),
    ) {
        let cfg = HbpsConfig { max_score: 3200, bins: 32, list_capacity: 64 };
        let width = cfg.bin_width();
        let n = init.len() as u32;
        let mut hbps = Hbps::build(
            cfg,
            init.iter().enumerate().map(|(i, &s)| (AaId(i as u32), AaScore(s))),
        ).unwrap();
        let mut shadow: HashMap<u32, u32> = init
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        // AAs taken from the list but still tracked by the histogram.
        let mut taken: std::collections::HashSet<u32> = Default::default();
        for op in ops {
            match op {
                HbpsOp::ScoreChange(aa, new) => {
                    let aa = aa % n;
                    let old = shadow[&aa];
                    hbps.on_score_change(AaId(aa), AaScore(old), AaScore(new)).unwrap();
                    shadow.insert(aa, new);
                    // A score change may re-list a previously taken AA.
                    taken.remove(&aa);
                }
                HbpsOp::TakeBest => {
                    // The §3.3.2 background scan runs when takes have
                    // degraded the list; with it in the loop the error-
                    // margin guarantee must hold on every pick.
                    if hbps.needs_replenish(4) {
                        hbps.replenish(
                            shadow.iter().map(|(&k, &v)| (AaId(k), AaScore(v))),
                        ).unwrap();
                        taken.clear();
                    }
                    if let Some((aa, bound)) = hbps.take_best() {
                        let actual = shadow[&aa.get()];
                        // The bound is the upper edge of the AA's bin, and
                        // the pick is within one bin width of the true
                        // best among AAs not already handed out.
                        prop_assert!(actual <= bound.get());
                        let best_untaken = shadow
                            .iter()
                            .filter(|(k, _)| !taken.contains(k))
                            .map(|(_, &v)| v)
                            .max()
                            .unwrap_or(0);
                        prop_assert!(
                            actual + width >= best_untaken,
                            "picked {actual}, best untaken {best_untaken}"
                        );
                        taken.insert(aa.get());
                    }
                }
            }
            // Histogram counts all AAs regardless of list membership.
            prop_assert_eq!(hbps.tracked(), n as u64);
        }
        // Serialization round-trips whatever state we ended in.
        let (p1, p2) = hbps.to_pages();
        let back = Hbps::from_pages(&p1, &p2).unwrap();
        prop_assert_eq!(back.bin_counts(), hbps.bin_counts());
        prop_assert_eq!(back.list_len(), hbps.list_len());
    }
}

// ---------------------------------------------------------------------
// The dense ScoreDeltaBatch vs an ordered-map model
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum BatchOp {
    Freed(u32, u32),
    Allocated(u32, u32),
    /// Free and allocate the same count: touched, net zero.
    Both(u32, u32),
    Drain,
}

/// AA ids from three scales, so that later records land below, inside
/// and far past the tables the first ones sized.
fn batch_aa() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..70, 0u32..2_100, 250_000u32..250_300]
}

fn batch_op() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        4 => (batch_aa(), 1u32..40_000).prop_map(|(aa, n)| BatchOp::Freed(aa, n)),
        4 => (batch_aa(), 1u32..40_000).prop_map(|(aa, n)| BatchOp::Allocated(aa, n)),
        2 => (batch_aa(), 1u32..40_000).prop_map(|(aa, n)| BatchOp::Both(aa, n)),
        1 => Just(BatchOp::Drain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_batch_matches_ordered_map_model(
        ops in proptest::collection::vec(batch_op(), 1..400),
    ) {
        let mut batch = ScoreDeltaBatch::new();
        let mut model: BTreeMap<u32, i64> = BTreeMap::new();
        for op in ops.into_iter().chain([BatchOp::Drain]) {
            match op {
                BatchOp::Freed(aa, n) => {
                    batch.record_freed(AaId(aa), n);
                    *model.entry(aa).or_default() += n as i64;
                }
                BatchOp::Allocated(aa, n) => {
                    batch.record_allocated(AaId(aa), n);
                    *model.entry(aa).or_default() -= n as i64;
                }
                BatchOp::Both(aa, n) => {
                    batch.record_freed(AaId(aa), n);
                    batch.record_allocated(AaId(aa), n);
                    model.entry(aa).or_default();
                }
                BatchOp::Drain => {
                    // A clone drains alike and leaves the original whole.
                    let cloned: Vec<_> = batch.clone().drain().collect();
                    let want: Vec<_> = std::mem::take(&mut model)
                        .into_iter()
                        .filter(|&(_, d)| d != 0)
                        .map(|(aa, d)| (AaId(aa), ScoreDelta(d)))
                        .collect();
                    prop_assert_eq!(batch.drain().collect::<Vec<_>>(), want.clone());
                    prop_assert_eq!(cloned, want);
                }
            }
            // Touched AAs count whether or not their deltas cancel.
            prop_assert_eq!(batch.touched_aas(), model.len());
            prop_assert_eq!(batch.is_empty(), model.is_empty());
        }
    }
}
