//! Per-block reference definitions of what the CP computes in bulk.
//!
//! Production `wafl-fs` claims free blocks a word at a time, binds a
//! volume's write set in three passes, frees in sorted batches, costs a
//! group's writes per run and keeps AA scores in caches that only see
//! deltas. Each of those has a definition one block at a time, and this
//! crate holds it:
//!
//! * [`per_bit_allocate_run`] / [`per_bit_free_run`]: one bit flip per
//!   block;
//! * [`popcount_score`]: an AA's free blocks, counted from the raw bits;
//! * [`cost_raid_group`]: a group's media cost, from its written blocks;
//! * [`MapModel`]: logical → (vvbn, pvbn) per volume, and the owner of
//!   every pvbn.
//!
//! Nothing here decides *which* blocks a CP takes — AA picks, group
//! shares, shortfall rounds — so no bug in that control flow can be copied
//! into the reference that is meant to catch it.
//! `crates/fs/tests/oracle_parity.rs` checks every CP against these from
//! the state before and after it; the bitmap's proptests check the run
//! mutators and the claim kernel against the per-bit loops.
//!
//! This crate is a dev-dependency only. Nothing in production depends on
//! it.

use wafl_bitmap::Bitmap;
use wafl_core::AaTopology;
use wafl_media::HddModel;
use wafl_raid::{analyze_cp_write, RaidGeometry};
use wafl_types::{AaId, Vbn, VolumeId, WaflResult};

/// Per-RAID-group results of costing one CP's writes. Field-for-field the
/// shape of `wafl_fs::RgCpStats`, so costing parity can compare every
/// number.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OracleRgStats {
    /// Data blocks written to this group.
    pub blocks: u64,
    /// Tetrises (64-stripe RAID I/O units) issued.
    pub tetrises: u64,
    /// Full-stripe writes.
    pub full_stripes: u64,
    /// Partial-stripe writes.
    pub partial_stripes: u64,
    /// Blocks read for parity computation.
    pub parity_reads: u64,
    /// Parity blocks written.
    pub parity_writes: u64,
    /// Data blocks per data device.
    pub per_device_blocks: Vec<u64>,
    /// Write chains per data device.
    pub per_device_chains: Vec<u64>,
    /// Media time for this group (max across its devices), µs.
    pub media_us: f64,
}

/// Popcount an AA's free blocks directly from the raw bits — the score
/// every AA cache approximates (§3.2–3.3).
pub fn popcount_score(topology: &AaTopology, bitmap: &Bitmap, aa: AaId) -> u32 {
    topology
        .aa_vbn_ranges(aa)
        .iter()
        .map(|&(start, len)| bitmap.free_count_range_popcount(start, len))
        .sum()
}

/// Cost one CP's writes to an HDD group block by block (§2.5): stripe
/// classification and chain counts from the per-block analysis, and
/// each device's time from its sorted DBNs. `vbns` may come in any order.
pub fn cost_raid_group(
    geometry: &RaidGeometry,
    hdd: &HddModel,
    vbns: &[Vbn],
) -> WaflResult<OracleRgStats> {
    let analysis = analyze_cp_write(geometry, vbns)?;
    let mut rg = OracleRgStats {
        blocks: analysis.data_blocks,
        tetrises: analysis.tetrises,
        full_stripes: analysis.full_stripes,
        partial_stripes: analysis.partial_stripes,
        parity_reads: analysis.parity_reads,
        parity_writes: analysis.parity_writes,
        per_device_blocks: analysis.per_device_blocks.clone(),
        per_device_chains: analysis.per_device_chains.clone(),
        media_us: 0.0,
    };
    if vbns.is_empty() {
        return Ok(rg);
    }
    let mut per_device: Vec<Vec<u64>> = vec![Vec::new(); geometry.data_devices as usize];
    let mut stripes = Vec::with_capacity(vbns.len());
    for &vbn in vbns {
        let loc = geometry.vbn_to_loc(vbn)?;
        per_device[loc.device.index()].push(loc.dbn.get());
        stripes.push(loc.dbn.get());
    }
    for dev in &mut per_device {
        dev.sort_unstable();
    }
    // Each parity device writes one block per written stripe.
    stripes.sort_unstable();
    stripes.dedup();
    for _ in 0..geometry.parity_devices {
        per_device.push(stripes.clone());
    }
    let slowest = per_device
        .iter()
        .filter(|dbns| !dbns.is_empty())
        .map(|dbns| {
            let chains = dbns_to_chains(dbns);
            let blocks: u64 = chains.iter().map(|&(_, l)| l).sum();
            hdd.write_cost_us(chains.len() as u64, blocks)
        })
        .fold(0.0, f64::max);
    rg.media_us = slowest + hdd.random_read_cost_us(analysis.parity_reads);
    Ok(rg)
}

/// Collapse a sorted DBN list into maximal `(start, len)` chains.
fn dbns_to_chains(dbns: &[u64]) -> Vec<(u64, u64)> {
    let mut chains = Vec::new();
    let mut iter = dbns.iter().copied();
    let Some(first) = iter.next() else {
        return chains;
    };
    let (mut start, mut len) = (first, 1u64);
    for dbn in iter {
        if dbn == start + len {
            len += 1;
        } else {
            chains.push((start, len));
            start = dbn;
            len = 1;
        }
    }
    chains.push((start, len));
    chains
}

/// Reference per-bit run allocation: one `Bitmap::allocate` per block.
/// The bulk run mutators and the claim kernel in `wafl-bitmap` are
/// equivalence-tested against this loop (`run_mutator_proptest.rs`,
/// `claim_proptest.rs`) — it lives here so the reference semantics stay
/// outside the crate under test.
pub fn per_bit_allocate_run(bitmap: &mut Bitmap, start: Vbn, len: u64) -> WaflResult<()> {
    for v in start.get()..start.get() + len {
        bitmap.allocate(Vbn(v))?;
    }
    Ok(())
}

/// Reference per-bit run free: one `Bitmap::free` per block.
pub fn per_bit_free_run(bitmap: &mut Bitmap, start: Vbn, len: u64) -> WaflResult<()> {
    for v in start.get()..start.get() + len {
        bitmap.free(Vbn(v))?;
    }
    Ok(())
}

/// The volumes' maps one block at a time: where each logical block lives,
/// and who owns each pvbn. A COW write of a mapped block, like a delete,
/// gives back the pair it displaced, which the CP frees at its boundary.
/// No snapshots: every displaced pair is free.
pub struct MapModel {
    /// Per volume, logical block → (vvbn, pvbn).
    vols: Vec<Vec<Option<(Vbn, Vbn)>>>,
    /// Per pvbn, the (volume, vvbn) that references it.
    owners: Vec<Option<(VolumeId, Vbn)>>,
}

impl MapModel {
    /// Empty maps over a physical space of `pvbns` blocks, for volumes
    /// of `logical_blocks[i]` logical blocks each.
    pub fn new(pvbns: u64, logical_blocks: &[u64]) -> MapModel {
        MapModel {
            vols: logical_blocks
                .iter()
                .map(|&n| vec![None; n as usize])
                .collect(),
            owners: vec![None; pvbns as usize],
        }
    }

    /// `logical` of `vol` now lives at (`vvbn`, `pvbn`). Returns the pair
    /// it displaced, if it was mapped.
    pub fn write(
        &mut self,
        vol: VolumeId,
        logical: u64,
        vvbn: Vbn,
        pvbn: Vbn,
    ) -> Option<(Vbn, Vbn)> {
        let old = self.vols[vol.index()][logical as usize].replace((vvbn, pvbn));
        self.release(old);
        self.owners[pvbn.index()] = Some((vol, vvbn));
        old
    }

    /// Unmap `logical` of `vol`. Returns the pair it displaced, if it was
    /// mapped.
    pub fn delete(&mut self, vol: VolumeId, logical: u64) -> Option<(Vbn, Vbn)> {
        let old = self.vols[vol.index()][logical as usize].take();
        self.release(old);
        old
    }

    /// Where `logical` of `vol` lives, if it is mapped.
    pub fn lookup(&self, vol: VolumeId, logical: u64) -> Option<(Vbn, Vbn)> {
        self.vols[vol.index()][logical as usize]
    }

    /// Who holds `pvbn`: the independent reference for the view `wafl-fs`
    /// derives from its volume maps. `None` for a block nobody owns.
    pub fn owner_of(&self, pvbn: Vbn) -> Option<(VolumeId, Vbn)> {
        self.owners.get(pvbn.index()).copied().flatten()
    }

    fn release(&mut self, pair: Option<(Vbn, Vbn)>) {
        if let Some((_, pvbn)) = pair {
            self.owners[pvbn.index()] = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbn_chain_collapse() {
        assert_eq!(dbns_to_chains(&[]), vec![]);
        assert_eq!(dbns_to_chains(&[5]), vec![(5, 1)]);
        assert_eq!(
            dbns_to_chains(&[1, 2, 3, 7, 8, 20]),
            vec![(1, 3), (7, 2), (20, 1)]
        );
    }

    #[test]
    fn per_bit_reference_mutators_round_trip() {
        let mut bm = Bitmap::new(4096);
        per_bit_allocate_run(&mut bm, Vbn(100), 64).unwrap();
        assert_eq!(bm.free_blocks(), 4096 - 64);
        per_bit_free_run(&mut bm, Vbn(100), 64).unwrap();
        assert_eq!(bm.free_blocks(), 4096);
        assert!(per_bit_allocate_run(&mut bm, Vbn(4090), 10).is_err());
    }

    #[test]
    fn map_model_gives_back_what_a_write_or_delete_displaces() {
        let (vol, mut m) = (VolumeId(1), MapModel::new(100, &[0, 10]));
        assert_eq!(m.write(vol, 3, Vbn(7), Vbn(40)), None);
        assert_eq!(m.owner_of(Vbn(40)), Some((vol, Vbn(7))));
        assert_eq!(m.write(vol, 3, Vbn(8), Vbn(41)), Some((Vbn(7), Vbn(40))));
        assert_eq!(m.owner_of(Vbn(40)), None);
        assert_eq!(m.lookup(vol, 3), Some((Vbn(8), Vbn(41))));
        assert_eq!(m.delete(vol, 3), Some((Vbn(8), Vbn(41))));
        assert_eq!((m.lookup(vol, 3), m.owner_of(Vbn(41))), (None, None));
        assert_eq!(m.delete(vol, 3), None);
    }
}
