//! Dirty-epoch stamp wraparound soak.
//!
//! Overwrite dedup rides a one-byte stamp per logical block: a block is
//! queued for the next CP iff its stamp equals the current epoch byte
//! `1 + cp_epoch % 255` (`0` = never stamped), and the CP boundary
//! "clears" every stamp in O(1) by bumping the epoch. The byte cycles,
//! so a stamp written at epoch `e` reads identical to the byte of epoch
//! `e + 255`; the aggregate defends against that by zeroing every stamp
//! array each time `cp_epoch` reaches a multiple of 255 — within any
//! 255-epoch window. These tests soak the wrap: a stale stamp must
//! never alias the current epoch byte and silently swallow a write.

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

/// The targeted 255-gap scenario: write a block, advance the epoch until
/// its byte value comes round again (epoch `e` and epoch `e + 255` share
/// the same stamp byte), then overwrite the block. Without the zeroing
/// pass the stale stamp would equal the fresh epoch byte and the
/// overwrite would be deduped away as "already dirty this CP"; with it,
/// the write must queue and flush.
#[test]
fn gap_255_alias() {
    let mut a = agg();
    // Epoch 1 (stamp byte 2): write L and flush it.
    a.client_overwrite(VolumeId(0), 7).unwrap();
    let s = a.run_cp().unwrap();
    assert_eq!(s.ops, 1);
    let before = a.volumes()[0].lookup_logical(7).map(|v| v.get()).unwrap();

    // 254 empty CPs carry cp_epoch from 2 to 256 — past the zeroing at
    // 255 and onto the epoch whose byte (2) aliases the original stamp.
    for _ in 0..254 {
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 0);
    }

    // The overwrite must queue (stale stamp zeroed, not aliasing) and
    // the next CP must flush exactly it, moving the block's mapping.
    a.client_overwrite(VolumeId(0), 7).unwrap();
    let s = a.run_cp().unwrap();
    assert_eq!(s.ops, 1, "overwrite swallowed by a stale aliased stamp");
    let after = a.volumes()[0].lookup_logical(7).map(|v| v.get()).unwrap();
    assert_ne!(before, after, "COW must move the block");
}

/// Soak across >255 CPs: every round overwrites a fixed working set
/// twice (the double write checks within-CP coalescing keeps working
/// after stamp zeroing too) and the CP must flush exactly the distinct
/// set — no round may lose writes to a stale stamp or double-queue
/// after the wrap.
#[test]
fn soak() {
    const ROUNDS: u64 = 300; // > 255: crosses the zeroing epoch and beyond
    const SET: u64 = 64;
    let mut a = agg();
    for round in 0..ROUNDS {
        // A sliding window of logicals; revisits earlier blocks often so
        // old stamps are plentiful when the epoch byte comes round.
        let base = (round * 17) % (LOGICALS - SET);
        for l in base..base + SET {
            a.client_overwrite(VolumeId(0), l).unwrap();
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, SET, "round {round}: CP flushed a wrong dirty set");
    }
    assert_eq!(a.cp_count(), ROUNDS);
}
