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
//! Usage: `cargo run --release -p wafl-harness --bin alloc_smoke`
//! (`scripts/ci.sh --alloc-smoke`). Exits nonzero on any mismatch.

use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_fs::{Aggregate, AggregateConfig, CpStats, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::{VolumeId, BITS_PER_BITMAP_BLOCK};

const ROUNDS: u64 = 10;
const OPS: u64 = 8192;
const LOGICAL: u64 = 200_000;

/// What one arm's measured rounds add up to.
#[derive(Debug, PartialEq)]
struct Counts {
    blocks_written: u64,
    blocks_examined: u64,
    cursor_hits: u64,
    replenish_pages: u64,
    agg_pick_free_mean: f64,
    vol_pick_free_mean: f64,
}

const CACHE_GUIDED: Counts = Counts {
    blocks_written: 80_214,
    blocks_examined: 332_458,
    cursor_hits: 2,
    replenish_pages: 0,
    agg_pick_free_mean: 1.0,
    vol_pick_free_mean: 1.0,
};

const CACHE_LESS: Counts = Counts {
    blocks_written: 80_214,
    blocks_examined: 364_511,
    cursor_hits: 2,
    replenish_pages: 0,
    agg_pick_free_mean: 0.860_925_292_968_75,
    vol_pick_free_mean: 0.599_525_451_660_156_3,
};

/// Fill, two warm-up rounds, then `ROUNDS` counted overwrite+CP rounds
/// (`bench_baseline`'s CP series, shortened), at a fixed seed.
fn run(caches: bool) -> Counts {
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
    Counts {
        blocks_written: sum.blocks_written,
        blocks_examined: sum.blocks_examined,
        cursor_hits: sum.cursor_hits,
        replenish_pages: sum.replenish_pages,
        agg_pick_free_mean: sum.agg_pick_free_mean(),
        vol_pick_free_mean: sum.vol_pick_free_mean(),
    }
}

fn main() {
    let on = run(true);
    let off = run(false);
    let per_block = |c: &Counts| c.blocks_examined as f64 / c.blocks_written as f64;
    eprintln!(
        "alloc smoke: blocks examined per block written: cache-guided {:.3}, cache-less {:.3}",
        per_block(&on),
        per_block(&off)
    );
    let mut ok = true;
    for (arm, got, want) in [
        ("cache-guided", &on, &CACHE_GUIDED),
        ("cache-less", &off, &CACHE_LESS),
    ] {
        if got != want {
            eprintln!("FAIL: {arm} arm counted\n  {got:?}\nexpected\n  {want:?}");
            ok = false;
        }
    }
    if on.blocks_examined >= off.blocks_examined {
        eprintln!("FAIL: the cache-guided allocator examines no fewer positions than random picks");
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("alloc smoke passed: counters exact, cache-guided search is the shorter one.");
}
