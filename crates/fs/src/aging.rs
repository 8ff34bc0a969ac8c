//! Aging recipes: reproduce the paper's aged, fragmented file systems.
//!
//! §4.1's setup: "the aggregate was filled up to 55% and was thoroughly
//! fragmented by applying heavy random write traffic for a long period of
//! time" — random overwrites in a COW file system free random blocks,
//! fragmenting the free space (§2.2).

use crate::aggregate::Aggregate;
use crate::cp::CpStats;
use rand::prelude::*;
use rand::rngs::StdRng;
use wafl_types::{Vbn, VolumeId, WaflResult};

/// Write every logical block of `vol` once (sequential fill), in CPs of
/// `ops_per_cp` operations. Returns accumulated CP stats.
pub fn fill_volume(agg: &mut Aggregate, vol: VolumeId, ops_per_cp: usize) -> WaflResult<CpStats> {
    fill_volume_fraction(agg, vol, 1.0, ops_per_cp)
}

/// Fill a fraction of `vol`'s logical space (from block 0 upward).
pub fn fill_volume_fraction(
    agg: &mut Aggregate,
    vol: VolumeId,
    fraction: f64,
    ops_per_cp: usize,
) -> WaflResult<CpStats> {
    let blocks =
        (agg.volumes()[vol.index()].logical_blocks() as f64 * fraction.clamp(0.0, 1.0)) as u64;
    let mut acc = CpStats::default();
    let mut l = 0u64;
    while l < blocks {
        let end = (l + ops_per_cp as u64).min(blocks);
        for b in l..end {
            agg.client_overwrite(vol, b)?;
        }
        acc.accumulate(&agg.run_cp()?);
        l = end;
    }
    Ok(acc)
}

/// Random-overwrite churn: `total_ops` uniform overwrites of already-
/// written logical blocks, flushed every `ops_per_cp`. This is the §4.1
/// fragmentation workload ("random overwrites create worst-case
/// fragmentation in a COW file system").
pub fn random_overwrite_churn(
    agg: &mut Aggregate,
    vol: VolumeId,
    total_ops: u64,
    ops_per_cp: usize,
    seed: u64,
) -> WaflResult<CpStats> {
    let written = agg.volumes()[vol.index()].logical_blocks();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = CpStats::default();
    let mut done = 0u64;
    while done < total_ops {
        let burst = (total_ops - done).min(ops_per_cp as u64);
        for _ in 0..burst {
            agg.client_overwrite(vol, rng.random_range(0..written))?;
        }
        acc.accumulate(&agg.run_cp()?);
        done += burst;
    }
    Ok(acc)
}

/// Directly seed a RAID group's PVBN range to `fraction` random occupancy
/// and rebuild its AA cache — the §4.2 setup where "disks in RG0 and RG1
/// were aged ... until a random 50% of its blocks were used". The seeded
/// blocks carry no volume owner (they model other tenants' cold data);
/// segment cleaning can still relocate them.
pub fn seed_rg_random_occupancy(
    agg: &mut Aggregate,
    rg_index: usize,
    fraction: f64,
    seed: u64,
) -> WaflResult<()> {
    let (base, len) = {
        let g = &agg.groups()[rg_index];
        (g.geometry.base_vbn.get(), g.geometry.data_blocks())
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let target = (len as f64 * fraction.clamp(0.0, 1.0)) as u64;
    let mut placed = 0u64;
    while placed < target {
        let vbn = Vbn(base + rng.random_range(0..len));
        if agg.bitmap.allocate(vbn).is_ok() {
            agg.seeds.insert(vbn.index());
            placed += 1;
        }
    }
    agg.bitmap.take_dirty_stats(); // seeding is setup, not measured I/O
    rebuild_rg_cache(agg, rg_index)
}

/// Rebuild one RAID group's AA cache from the bitmap (used after direct
/// bitmap seeding, which bypasses the CP's batched updates, and by the
/// cold mount path). No-op when the aggregate config disables the cache.
pub fn rebuild_rg_cache(agg: &mut Aggregate, rg_index: usize) -> WaflResult<()> {
    if !agg.cfg.raid_aware_cache {
        return Ok(());
    }
    agg.groups[rg_index].rebuild_cache(&agg.bitmap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;

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
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                60_000,
            )],
            1,
        )
        .unwrap()
    }

    #[test]
    fn fill_then_churn_fragments_free_space() {
        let mut a = agg();
        fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096 - 60_000);
        let frag_before =
            wafl_bitmap::scan::fragmentation_in_range(a.bitmap(), Vbn(0), a.bitmap().space_len());
        random_overwrite_churn(&mut a, VolumeId(0), 60_000, 4096, 9).unwrap();
        // Occupancy unchanged (COW overwrites are net-zero), but the free
        // space shattered into many more runs.
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096 - 60_000);
        let frag_after =
            wafl_bitmap::scan::fragmentation_in_range(a.bitmap(), Vbn(0), a.bitmap().space_len());
        assert!(
            frag_after.1 > 4 * frag_before.1,
            "runs before {} after {}",
            frag_before.1,
            frag_after.1
        );
        assert!(frag_after.2 < frag_before.2, "longest run must shrink");
    }

    #[test]
    fn rg_seeding_hits_target_occupancy() {
        let mut a = agg();
        seed_rg_random_occupancy(&mut a, 0, 0.5, 5).unwrap();
        let free = a.bitmap().free_fraction();
        assert!((free - 0.5).abs() < 0.01, "free fraction {free}");
        // Cache rebuilt: best AA is roughly half empty, not full-empty.
        let best = a.groups()[0].cache().unwrap().best().unwrap().1;
        let max = a.groups()[0].stripes_per_aa * 4;
        let frac = best.get() as f64 / max as f64;
        assert!(frac < 0.9, "best AA still looks empty: {frac}");
        assert!(frac > 0.4);
    }
}
