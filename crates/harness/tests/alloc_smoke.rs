//! Allocation smoke gate: the cache-guided allocator examines fewer block
//! positions per block written than cache-less random picks (§2.5,
//! §4.1.2: the cost of a write follows the positions examined), and both
//! arms count exactly what is recorded below.
//!
//! Counts, not wall time: every counter here is a function of the seed
//! alone, and on a shared runner the wall-time ratio of the two arms
//! moved more than the allocator did. A change that moves a counter —
//! which AAs are picked, how far a drain walks, how often a cursor
//! resumes or a list is rescanned — either fixes the regression or
//! updates the expectation on purpose.
//!
//! Run alone: `cargo test -p wafl-harness --test alloc_smoke`.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_fs::{Aggregate, AggregateConfig, CpStats, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};

const ROUNDS: u64 = 10;
const OPS: u64 = 8192;
const LOGICAL: u64 = 200_000;

/// What an arm's counted rounds add up to: (counter, cache-guided,
/// cache-less). The counts are far below 2^53, so f64 holds them exactly.
const EXPECTED: [(&str, f64, f64); 6] = [
    ("blocks_written", 80_214.0, 80_214.0),
    ("blocks_examined", 332_458.0, 364_511.0),
    ("cursor_hits", 2.0, 2.0),
    ("replenish_pages", 0.0, 0.0),
    ("agg_pick_free_mean", 1.0, 0.860_925_292_968_75),
    ("vol_pick_free_mean", 1.0, 0.599_525_451_660_156_3),
];

/// Fill, two warm-up rounds, then `ROUNDS` counted overwrite+CP rounds of
/// 8 192 random overwrites each, at a fixed seed.
fn run(caches: bool) -> [f64; 6] {
    let mut agg = Aggregate::new(
        AggregateConfig {
            raid_aware_cache: caches,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 64 * 4096,
                profile: MediaProfile::hdd(),
            })
        },
        &[(
            FlexVolConfig {
                size_blocks: 16 * BITS_PER_BITMAP_BLOCK,
                aa_cache: caches,
                aa_blocks: None,
            },
            LOGICAL,
        )],
        1,
    )
    .expect("smoke aggregate");
    wafl_fs::aging::fill_volume(&mut agg, VolumeId(0), 8192).expect("fill");
    let mut rng = StdRng::seed_from_u64(2);
    let mut sum = CpStats::default();
    for round in 0..2 + ROUNDS {
        for _ in 0..OPS {
            agg.client_overwrite(VolumeId(0), rng.random_range(0..LOGICAL))
                .expect("overwrite");
        }
        let stats = agg.run_cp().expect("cp");
        if round >= 2 {
            sum.accumulate(&stats);
        }
    }
    [
        sum.blocks_written as f64,
        sum.blocks_examined as f64,
        sum.cursor_hits as f64,
        sum.replenish_pages as f64,
        sum.agg_pick_free_mean(),
        sum.vol_pick_free_mean(),
    ]
}

#[test]
fn counters_are_exact_and_the_cache_guided_search_is_shorter() {
    let (on, off) = (run(true), run(false));
    for (i, (counter, want_on, want_off)) in EXPECTED.into_iter().enumerate() {
        assert_eq!(
            (on[i], off[i]),
            (want_on, want_off),
            "{counter}: (cache-guided, cache-less)"
        );
    }
    assert!(
        on[1] < off[1],
        "the cache-guided allocator examines no fewer positions than random picks: \
         {:.3} vs {:.3} per block written",
        on[1] / on[0],
        off[1] / off[0]
    );
}
