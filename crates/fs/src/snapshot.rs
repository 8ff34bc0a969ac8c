//! Volume snapshots — the COW machinery that motivates the paper.
//!
//! WAFL is "a transaction-based file system that employs copy-on-write
//! mechanisms to achieve fast write performance and efficient snapshot
//! creation" (§1), and §4.1.1 notes that "the freeing of blocks due to
//! other internal activity, such as snapshot deletion, further adds to
//! this nonuniformity" of free space — the nonuniformity the AA caches
//! exploit.
//!
//! Model: a snapshot pins every virtual VBN live at creation time.
//! Overwrites and deletions of pinned blocks *detach* them (the active
//! map moves on; the block pair stays allocated for the snapshot's sake);
//! deleting the snapshot releases every pair whose last reference it held
//! — a burst of frees colocated wherever that snapshot's data was
//! written, applied as delayed frees at the next CP.
//!
//! Physical locations are resolved through the volume's live vvbn→pvbn
//! map at release time, so segment cleaning can relocate pinned blocks
//! freely in the meantime.

use crate::aggregate::{no_volume, Aggregate};
use crate::volume::FlexVol;
use serde::{Deserialize, Serialize};
use wafl_types::{Vbn, VolumeId, WaflError, WaflResult};

/// Identifier of a snapshot within its volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SnapshotId(pub u64);

impl std::fmt::Display for SnapshotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SnapshotId({})", self.0)
    }
}

/// One snapshot: the set of virtual VBNs live at creation.
pub(crate) struct Snapshot {
    pub id: SnapshotId,
    /// Pinned virtual VBNs (their physical homes are resolved through the
    /// volume's vvbn map, which cleaning keeps current).
    pub pinned: Vec<Vbn>,
}

/// Statistics from a snapshot deletion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotDeleteStats {
    /// Block pairs whose last reference the snapshot held — queued as
    /// delayed frees for the next CP.
    pub blocks_released: u64,
    /// Pairs still referenced elsewhere (active map or other snapshots).
    pub blocks_still_referenced: u64,
}

impl Aggregate {
    /// Take a snapshot of `vol`, pinning every currently-mapped block.
    pub fn snapshot_create(&mut self, vol: VolumeId) -> WaflResult<SnapshotId> {
        let v = self
            .vols
            .get_mut(vol.index())
            .ok_or_else(|| no_volume(vol))?;
        Ok(v.snapshot_create())
    }

    /// Delete a snapshot: every block pair whose last reference it held
    /// becomes a delayed free, applied at the next CP boundary (the
    /// §4.1.1 "internal activity" burst).
    pub fn snapshot_delete(
        &mut self,
        vol: VolumeId,
        id: SnapshotId,
    ) -> WaflResult<SnapshotDeleteStats> {
        let v = self
            .vols
            .get_mut(vol.index())
            .ok_or_else(|| no_volume(vol))?;
        let (released, stats) = v.snapshot_delete(id)?;
        for (vvbn, pvbn) in released {
            v.delayed_vvbn_frees.push(vvbn);
            self.delayed_pvbn_frees.push(pvbn);
        }
        Ok(stats)
    }

    /// Snapshots currently held by `vol`.
    pub fn snapshots(&self, vol: VolumeId) -> &[SnapshotId] {
        self.vols
            .get(vol.index())
            .map(|v| v.snapshot_ids())
            .unwrap_or(&[])
    }
}

impl FlexVol {
    pub(crate) fn snapshot_create(&mut self) -> SnapshotId {
        let id = SnapshotId(self.next_snapshot_id);
        self.next_snapshot_id += 1;
        let mut pinned = Vec::new();
        for l in 0..self.logical_blocks() {
            if let Some(vvbn) = self.lookup_logical(l) {
                pinned.push(vvbn);
                *self.snap_refs.entry(vvbn.get()).or_insert(0) += 1;
            }
        }
        self.snapshots.push(Snapshot { id, pinned });
        self.refresh_snapshot_id_cache();
        id
    }

    pub(crate) fn snapshot_delete(
        &mut self,
        id: SnapshotId,
    ) -> WaflResult<(Vec<(Vbn, Vbn)>, SnapshotDeleteStats)> {
        let idx = self
            .snapshots
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| WaflError::InvalidConfig {
                reason: format!("volume {} has no snapshot {}", self.id, id.0),
            })?;
        let snap = self.snapshots.remove(idx);
        let mut released = Vec::new();
        let mut stats = SnapshotDeleteStats::default();
        for vvbn in snap.pinned {
            let refs = self
                .snap_refs
                .get_mut(&vvbn.get())
                .expect("pinned block has a refcount");
            *refs -= 1;
            if *refs > 0 {
                stats.blocks_still_referenced += 1;
                continue;
            }
            self.snap_refs.remove(&vvbn.get());
            if self.detached.remove(&vvbn.get()) {
                // Last reference: the pair finally frees.
                let pvbn = self
                    .take_vvbn_mapping(vvbn)
                    .expect("detached vvbn keeps its pvbn mapping");
                released.push((vvbn, pvbn));
                stats.blocks_released += 1;
            } else {
                // Still live in the active file system.
                stats.blocks_still_referenced += 1;
            }
        }
        self.refresh_snapshot_id_cache();
        Ok((released, stats))
    }

    /// Whether any snapshot pins `vvbn` (the overwrite/delete paths ask
    /// before freeing an old pair).
    pub(crate) fn vvbn_pinned(&self, vvbn: Vbn) -> bool {
        self.snap_refs.contains_key(&vvbn.get())
    }

    /// Mark a pinned vvbn as no longer active (overwritten/deleted while
    /// a snapshot holds it).
    pub(crate) fn detach_pinned(&mut self, vvbn: Vbn) {
        let inserted = self.detached.insert(vvbn.get());
        debug_assert!(inserted, "double detach of {vvbn}");
    }

    pub(crate) fn snapshot_ids(&self) -> &[SnapshotId] {
        &self.snapshot_id_cache
    }

    fn refresh_snapshot_id_cache(&mut self) {
        self.snapshot_id_cache = self.snapshots.iter().map(|s| s.id).collect();
    }

    /// Blocks pinned by snapshots but gone from the active file system.
    pub fn detached_blocks(&self) -> u64 {
        self.detached.len() as u64
    }
}
