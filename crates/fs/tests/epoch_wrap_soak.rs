//! Op-queue soak across many CPs.
//!
//! Each volume queues a logical block on its first client op since the
//! last CP and keeps one byte per block for the kind of its last op; the
//! CP resets each byte it takes. A byte left behind would swallow the
//! block's next write. These tests run past 255 CPs, the cycle of the
//! one-byte epoch stamp the queue replaced, and check that no write is
//! lost and that repeated writes within a CP queue the block once.

use wafl_fs::{Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_types::VolumeId;

const LOGICALS: u64 = 10_000;

fn agg() -> Aggregate {
    Aggregate::new(
        AggregateConfig::single_group(RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 16 * 4096,
            profile: MediaProfile::hdd(),
        }),
        &[(
            FlexVolConfig {
                size_blocks: 4 * 32768,
                aa_cache: true,
                aa_blocks: None,
            },
            LOGICALS,
        )],
        1,
    )
    .unwrap()
}

/// Write a block, run 255 empty CPs (once the gap after which an epoch
/// stamp aliased the current epoch), then overwrite the block: the write
/// must queue and flush.
#[test]
fn gap_255_alias() {
    let mut a = agg();
    // Write L and flush it.
    a.client_overwrite(VolumeId(0), 7).unwrap();
    let s = a.run_cp().unwrap();
    assert_eq!(s.ops, 1);
    let before = a.volumes()[0].lookup_logical(7).map(|v| v.get()).unwrap();

    // 254 empty CPs: 255 CPs after the write, its byte long reset.
    for _ in 0..254 {
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 0);
    }

    // The overwrite must queue and the next CP must flush exactly it,
    // moving the block's mapping.
    a.client_overwrite(VolumeId(0), 7).unwrap();
    let s = a.run_cp().unwrap();
    assert_eq!(s.ops, 1, "overwrite swallowed by a stale queue byte");
    let after = a.volumes()[0].lookup_logical(7).map(|v| v.get()).unwrap();
    assert_ne!(before, after, "COW must move the block");
}

/// Soak across >255 CPs: every round overwrites a fixed working set
/// twice (the double write checks within-CP coalescing) and the CP must
/// flush exactly the distinct set — no round may lose writes to a stale
/// queue byte or queue a block twice.
#[test]
fn soak() {
    const ROUNDS: u64 = 300; // > 255, the old epoch stamp's cycle
    const SET: u64 = 64;
    let mut a = agg();
    for round in 0..ROUNDS {
        // A sliding window of logicals that revisits earlier blocks often,
        // so most writes land on a byte some earlier CP reset.
        let base = (round * 17) % (LOGICALS - SET);
        for l in base..base + SET {
            a.client_overwrite(VolumeId(0), l).unwrap();
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, SET, "round {round}: CP flushed a wrong write set");
    }
    assert_eq!(a.cp_count(), ROUNDS);
}
