//! FlexVol state: virtual VBN space, logical→virtual→physical mappings,
//! and the volume's RAID-agnostic AA cache.

use crate::config::FlexVolConfig;
use crate::paged_map::{check_block_space, slot, PagedMap};
use crate::snapshot::{Snapshot, SnapshotId};
use std::collections::{HashMap, HashSet};
use wafl_bitmap::Bitmap;
use wafl_core::{book_spans, AaTopology, RaidAgnosticCache, ScoreDeltaBatch};
use wafl_types::{AaSizingPolicy, Vbn, VolumeId, WaflError, WaflResult, RAID_AGNOSTIC_AA_BLOCKS};

/// `logical_map` sentinel for "no mapping" (virtual spaces are checked
/// to end below it, see [`check_block_space`]).
const UNMAPPED: u32 = u32::MAX;

/// A logical block's position in `logical_map`. A number no `usize`
/// holds indexes past the end, like any other block the volume lacks.
#[inline]
fn index(logical: u64) -> usize {
    usize::try_from(logical).unwrap_or(usize::MAX)
}

/// A logical block's queued client op: what the next CP does with it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueuedOp {
    None,
    /// Bind the block to a fresh (vvbn, pvbn) pair.
    Write,
    /// Unmap the block.
    Delete,
}

/// One FlexVol volume hosted in the aggregate.
///
/// Three layers of numbering meet here (§2.1):
/// * *logical blocks* — the client-visible file/LUN offsets;
/// * *virtual VBNs* — the volume's own block-number space, tracked by the
///   volume's activemap and AA cache;
/// * *physical VBNs* — owned by the aggregate; the volume only remembers
///   the virtual→physical map.
///
/// Copy-on-write: every overwrite of a logical block gets a fresh virtual
/// and physical VBN; the old pair is freed *at the CP boundary* (delayed
/// frees, §3.3).
pub struct FlexVol {
    /// This volume's id within the aggregate.
    pub id: VolumeId,
    cfg: FlexVolConfig,
    /// Virtual activemap.
    pub(crate) bitmap: Bitmap,
    /// AA tiling of the virtual space (32 Ki consecutive VBNs by default).
    pub(crate) topology: AaTopology,
    /// HBPS-backed cache; `None` when the volume's AA cache is disabled.
    pub(crate) cache: Option<RaidAgnosticCache>,
    /// Logical block → virtual VBN, 4 bytes a slot: a random overwrite
    /// misses the cache here once per block, and the miss is cheaper the
    /// smaller the table (`docs/perf.md`, *CP footprint*). The functions
    /// that touch it deny `clippy::cast_possible_truncation`: block
    /// numbers go in through [`slot`] and come out through `u64::from`.
    logical_map: Vec<u32>,
    /// Client ops queued for the next CP: each logical block once, in
    /// the order of its first op since the last CP. What the CP does with
    /// it is its entry in `queued_op`.
    pub(crate) queued: Vec<u64>,
    /// The client's last op on each logical block since the last CP, one
    /// byte a block: `None` unless the block is in `queued`. The last op
    /// wins, so one write and one delete never both reach a CP.
    pub(crate) queued_op: Vec<QueuedOp>,
    /// Virtual VBN → physical VBN. Paged and direct-indexed: virtual
    /// spaces are thin-provisioned and can dwarf the live data, so the
    /// map faults in fixed-size pages on first touch (memory proportional
    /// to touched regions, not volume size) — while the bind path, which
    /// hits this once or twice per written block every CP, pays an index
    /// computation instead of a hash (see `docs/perf.md`).
    vvbn_map: PagedMap,
    /// Score deltas accumulated during the current CP.
    pub(crate) batch: ScoreDeltaBatch,
    /// Virtual VBNs freed by overwrites, applied at the CP boundary.
    pub(crate) delayed_vvbn_frees: Vec<Vbn>,
    /// The AA currently being drained (kept across CPs until exhausted,
    /// §3.1 — all free VBNs of a picked AA are assigned in order).
    pub(crate) active_aa: Option<wafl_types::AaId>,
    /// Resume point for draining the active AA: `(aa, first VBN not yet
    /// walked)`. Lets repeated drains skip the AA's allocated prefix.
    /// Purely an accelerator — it must be invalidated (set to `None`)
    /// whenever a free lands in its AA or a cache replenish or rebuild
    /// rescans the space; a stale cursor would skip free blocks.
    pub(crate) drain_cursor: Option<(wafl_types::AaId, Vbn)>,
    /// Structure-level quarantine: the volume's AA cache is suspect
    /// (degraded at mount, or a scrub read of it failed). Allocation
    /// bypasses the cache and sweeps the bitmap until its repair ticket
    /// settles.
    pub(crate) cache_quarantined: bool,
    /// HBPS picks seen by this volume, for the sampled pick-error audit
    /// (`allocator::PickAudit`).
    pub(crate) pick_audit_tick: u64,
    /// Snapshots pinning old block versions (see [`crate::snapshot`]).
    pub(crate) snapshots: Vec<Snapshot>,
    /// vvbn -> number of snapshots pinning it.
    pub(crate) snap_refs: HashMap<u64, u32>,
    /// Pinned vvbns no longer in the active file system (freed when their
    /// last snapshot goes).
    pub(crate) detached: HashSet<u64>,
    pub(crate) next_snapshot_id: u64,
    pub(crate) snapshot_id_cache: Vec<SnapshotId>,
}

impl FlexVol {
    /// Create an empty volume with `logical_blocks` of client-addressable
    /// space. The virtual space (`cfg.size_blocks`) must be at least as
    /// large.
    pub fn new(id: VolumeId, cfg: FlexVolConfig, logical_blocks: u64) -> WaflResult<FlexVol> {
        check_block_space(format_args!("volume {id}: virtual space"), cfg.size_blocks)?;
        if cfg.size_blocks < logical_blocks {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "volume {id}: virtual space {} smaller than logical space \
                     {logical_blocks}",
                    cfg.size_blocks
                ),
            });
        }
        let aa_blocks = cfg.aa_blocks.unwrap_or(RAID_AGNOSTIC_AA_BLOCKS);
        if aa_blocks == 0 || !aa_blocks.is_multiple_of(32) {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "volume {id}: AA size {aa_blocks} must be a positive \
                     multiple of the HBPS bin count (32)"
                ),
            });
        }
        let topology = AaTopology::raid_agnostic(
            cfg.size_blocks,
            AaSizingPolicy::ConsecutiveVbns { blocks: aa_blocks },
        )?;
        // One summary counter per AA where the size allows it: every score
        // query (CP batch apply, replenish scans, Iron audits, mount
        // rebuilds) reads a counter instead of popcounting the AA's bits.
        let bitmap = Bitmap::for_aa_tiling(cfg.size_blocks, aa_blocks);
        let cache = if cfg.aa_cache {
            Some(RaidAgnosticCache::build(topology.clone(), &bitmap)?)
        } else {
            None
        };
        Ok(FlexVol {
            id,
            cfg,
            bitmap,
            topology,
            cache,
            logical_map: vec![UNMAPPED; logical_blocks as usize],
            queued: Vec::new(),
            queued_op: vec![QueuedOp::None; logical_blocks as usize],
            vvbn_map: PagedMap::new(cfg.size_blocks),
            batch: ScoreDeltaBatch::new(),
            delayed_vvbn_frees: Vec::new(),
            active_aa: None,
            drain_cursor: None,
            cache_quarantined: false,
            pick_audit_tick: 0,
            snapshots: Vec::new(),
            snap_refs: HashMap::new(),
            detached: HashSet::new(),
            next_snapshot_id: 0,
            snapshot_id_cache: Vec::new(),
        })
    }

    /// Volume configuration.
    pub fn config(&self) -> FlexVolConfig {
        self.cfg
    }

    /// Client-addressable blocks.
    pub fn logical_blocks(&self) -> u64 {
        self.logical_map.len() as u64
    }

    /// Virtual space size.
    pub fn size_blocks(&self) -> u64 {
        self.cfg.size_blocks
    }

    /// The AA the allocator is filling, if any (§3.1).
    pub fn active_aa(&self) -> Option<wafl_types::AaId> {
        self.active_aa
    }

    /// Whether the volume's AA cache is structure-quarantined (allocation
    /// bypasses it and sweeps the bitmap).
    pub fn cache_quarantined(&self) -> bool {
        self.cache_quarantined
    }

    /// Free virtual VBNs.
    pub fn free_blocks(&self) -> u64 {
        self.bitmap.free_blocks()
    }

    /// Current virtual VBN of a logical block (`None` if never written).
    #[deny(clippy::cast_possible_truncation)]
    pub fn lookup_logical(&self, logical: u64) -> Option<Vbn> {
        let v = *self.logical_map.get(index(logical))?;
        (v != UNMAPPED).then_some(Vbn(u64::from(v)))
    }

    /// Queue `op` on `logical` for the next CP. The block joins the queue
    /// on its first op since the last CP; every later op replaces the
    /// kind, so the client's last op on a block wins.
    pub(crate) fn queue(&mut self, logical: u64, op: QueuedOp) {
        if std::mem::replace(&mut self.queued_op[index(logical)], op) == QueuedOp::None {
            self.queued.push(logical);
        }
    }

    /// Empty the queue: the logicals to bind and the logicals to unmap,
    /// each in queue order.
    pub(crate) fn take_queued(&mut self) -> (Vec<u64>, Vec<u64>) {
        let mut writes = std::mem::take(&mut self.queued);
        let mut deletes = Vec::new();
        writes.retain(|&logical| {
            let op = std::mem::replace(&mut self.queued_op[index(logical)], QueuedOp::None);
            if op == QueuedOp::Delete {
                deletes.push(logical);
            }
            op == QueuedOp::Write
        });
        (writes, deletes)
    }

    /// Physical VBN backing a virtual VBN.
    pub fn lookup_vvbn(&self, vvbn: Vbn) -> Option<Vbn> {
        self.vvbn_map.get(vvbn.get()).map(Vbn)
    }

    /// Record that `logical` now lives at (`vvbn`, `pvbn`). Returns the
    /// *previous* (vvbn, pvbn) pair if the block was mapped and no
    /// snapshot pins it — those become delayed frees; pinned pairs detach
    /// instead and free when their last snapshot goes. The one-block
    /// reference [`FlexVol::remap_batch`] is tested against.
    #[cfg(test)]
    #[deny(clippy::cast_possible_truncation)]
    pub(crate) fn remap(&mut self, logical: u64, vvbn: Vbn, pvbn: Vbn) -> Option<(Vbn, Vbn)> {
        let old_v = std::mem::replace(&mut self.logical_map[index(logical)], slot(vvbn.get()));
        self.vvbn_map.insert(vvbn.get(), pvbn.get());
        if old_v == UNMAPPED {
            return None;
        }
        self.release_or_detach(Vbn(u64::from(old_v)))
    }

    /// CP bind for one volume's whole write set: record that each
    /// `logicals[i]` now lives at (`vvbns[i]`, `pvbns[i]`), queue freed
    /// old virtual VBNs on the volume's delayed-free list, and return the
    /// freed *physical* VBNs for the aggregate's delayed-free path.
    /// Previous pairs that a snapshot pins detach instead and free when
    /// their last snapshot goes. Every structure touched here belongs to
    /// this volume alone.
    ///
    /// Three passes instead of three dependent steps per block: a random
    /// overwrite misses the cache on its `logical_map` slot and again on
    /// the old vvbn's map slot, and per block the second address is only
    /// known once the first load lands. Pass by pass the loads are
    /// independent, so the core overlaps the misses. The end state is
    /// that of the per-block order because a CP's logicals are distinct
    /// (no pass-1 slot is touched twice) and its new vvbns were free
    /// before the CP (no pass-2 insert lands on a slot pass 3 releases).
    #[deny(clippy::cast_possible_truncation)]
    pub(crate) fn remap_batch(
        &mut self,
        logicals: &[u64],
        vvbns: &[Vbn],
        pvbns: &[Vbn],
    ) -> Vec<Vbn> {
        debug_assert_eq!(logicals.len(), vvbns.len());
        debug_assert_eq!(logicals.len(), pvbns.len());
        debug_assert!(
            logicals.iter().collect::<HashSet<_>>().len() == logicals.len(),
            "a CP binds each logical block once"
        );
        let old_vvbns: Vec<u32> = logicals
            .iter()
            .zip(vvbns)
            .map(|(&logical, vvbn)| {
                std::mem::replace(&mut self.logical_map[index(logical)], slot(vvbn.get()))
            })
            .collect();
        for (vvbn, pvbn) in vvbns.iter().zip(pvbns) {
            let displaced = self.vvbn_map.insert(vvbn.get(), pvbn.get());
            debug_assert!(displaced.is_none(), "{vvbn} was mapped before its CP");
        }
        self.release_all(old_vvbns)
    }

    /// Remove `logical`'s mapping entirely (file deletion / hole punch),
    /// queue the freed vvbn as a delayed free and return the freed pvbn
    /// (`None` if the block was unmapped or a snapshot pins it). The
    /// one-block reference [`FlexVol::unmap_batch`] is tested against.
    #[cfg(test)]
    #[deny(clippy::cast_possible_truncation)]
    pub(crate) fn unmap(&mut self, logical: u64) -> Option<Vbn> {
        let old_v = std::mem::replace(&mut self.logical_map[index(logical)], UNMAPPED);
        if old_v == UNMAPPED {
            return None;
        }
        let (old_v, old_p) = self.release_or_detach(Vbn(u64::from(old_v)))?;
        self.delayed_vvbn_frees.push(old_v);
        Some(old_p)
    }

    /// CP unmap for one volume's queued deletes (file deletion / hole
    /// punch): remove each of `logicals`' mappings entirely, queue the
    /// freed vvbns as delayed frees and return the freed pvbns; blocks
    /// that were unmapped free nothing, and pinned ones detach. Two passes
    /// as in [`FlexVol::remap_batch`] — clear the `logical_map` slots
    /// gathering the old vvbns, then release their map slots — so the
    /// misses of a pass overlap. A CP's deletes are distinct logicals, so
    /// the end state is that of the per-block order.
    #[deny(clippy::cast_possible_truncation)]
    pub(crate) fn unmap_batch(&mut self, logicals: &[u64]) -> Vec<Vbn> {
        let old_vvbns: Vec<u32> = logicals
            .iter()
            .map(|&logical| std::mem::replace(&mut self.logical_map[index(logical)], UNMAPPED))
            .collect();
        self.release_all(old_vvbns)
    }

    /// The bind's last pass: release or detach each old vvbn a batch
    /// unlinked (`UNMAPPED` for a slot that held none), queueing the
    /// released ones as delayed frees; returns their pvbns.
    #[deny(clippy::cast_possible_truncation)]
    fn release_all(&mut self, old_vvbns: Vec<u32>) -> Vec<Vbn> {
        let mut freed_pvbns = Vec::with_capacity(old_vvbns.len());
        for old_v in old_vvbns {
            if old_v == UNMAPPED {
                continue;
            }
            if let Some((old_v, old_p)) = self.release_or_detach(Vbn(u64::from(old_v))) {
                self.delayed_vvbn_frees.push(old_v);
                freed_pvbns.push(old_p);
            }
        }
        freed_pvbns
    }

    /// The active file system no longer references `old_v`: free it now,
    /// or keep it (detached) for the snapshots that pin it.
    fn release_or_detach(&mut self, old_v: Vbn) -> Option<(Vbn, Vbn)> {
        // `snap_refs` is only populated while snapshots exist; skipping
        // the pin lookup when it is empty keeps the common no-snapshot
        // bind path to pure map traffic.
        if !self.snap_refs.is_empty() && self.vvbn_pinned(old_v) {
            self.detach_pinned(old_v);
            return None;
        }
        let old_p = self
            .vvbn_map
            .remove(old_v.get())
            .expect("mapped vvbn lacked a pvbn");
        Some((old_v, Vbn(old_p)))
    }

    /// Remove and return `vvbn`'s physical mapping (snapshot release).
    pub(crate) fn take_vvbn_mapping(&mut self, vvbn: Vbn) -> Option<Vbn> {
        self.vvbn_map.remove(vvbn.get()).map(Vbn)
    }

    /// All referenced (vvbn, pvbn) pairs: the active file system plus
    /// snapshot-pinned blocks — what segment cleaning and Iron derive
    /// physical ownership from.
    pub(crate) fn vvbn_entries(&self) -> impl Iterator<Item = (Vbn, Vbn)> + '_ {
        self.vvbn_map.iter().map(|(v, p)| (Vbn(v), Vbn(p)))
    }

    /// Point an existing virtual VBN at a new physical location (segment
    /// cleaning relocated the block). The virtual VBN itself is unchanged,
    /// so logical mappings and the volume's activemap are untouched.
    pub(crate) fn redirect_vvbn(&mut self, vvbn: Vbn, new_pvbn: Vbn) {
        let mapped = self.vvbn_map.set(vvbn.get(), new_pvbn.get());
        assert!(mapped, "redirected {vvbn} must be mapped");
    }

    /// Read access to the volume's activemap (diagnostics, scans).
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// The volume's AA topology.
    pub fn topology(&self) -> &AaTopology {
        &self.topology
    }

    /// The volume's AA cache, if enabled.
    pub fn cache(&self) -> Option<&RaidAgnosticCache> {
        self.cache.as_ref()
    }

    /// Rebuild the AA cache from the bitmap — the cold-mount scan, and
    /// what Iron and the scrubber repair with. The rebuilt cache lists
    /// every AA, so none stays active beside it.
    pub(crate) fn rebuild_cache(&mut self) -> WaflResult<()> {
        self.cache = Some(RaidAgnosticCache::build(
            self.topology.clone(),
            &self.bitmap,
        )?);
        self.active_aa = None;
        self.drain_cursor = None;
        Ok(())
    }

    /// A block was freed at `vvbn` outside the delayed-free path (Iron
    /// repair, snapshot release): drop the cursor if the free landed in
    /// its AA, since the freed block may now sit behind the resume point.
    pub(crate) fn note_vvbn_freed(&mut self, vvbn: Vbn) {
        if let Some((aa, _)) = self.drain_cursor {
            if self.topology.aa_of_vbn(vvbn).ok() == Some(aa) {
                self.drain_cursor = None;
            }
        }
    }

    /// Apply the CP boundary's delayed virtual frees (§3.3) in bulk, in
    /// the order they came: clear them with [`Bitmap::free_batch`], then
    /// book one score delta per run of frees in one AA. Invalidates the
    /// drain cursor for any AA a free lands in. Returns the blocks freed.
    pub(crate) fn flush_delayed_frees(&mut self) -> WaflResult<u64> {
        let frees = std::mem::take(&mut self.delayed_vvbn_frees);
        if frees.is_empty() {
            return Ok(0);
        }
        self.bitmap.free_batch(&frees)?;
        let finder = self.topology.span_finder();
        let (batch, cursor) = (&mut self.batch, &mut self.drain_cursor);
        let locate = |vbn| Ok(((), finder.span_of(vbn)?));
        book_spans(&frees, locate, |(), aa, n| {
            batch.record_freed(aa, n);
            if cursor.is_some_and(|(c, _)| c == aa) {
                *cursor = None;
            }
        })?;
        Ok(frees.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol() -> FlexVol {
        FlexVol::new(
            VolumeId(0),
            FlexVolConfig {
                size_blocks: 4 * RAID_AGNOSTIC_AA_BLOCKS,
                aa_cache: true,
                aa_blocks: None,
            },
            1000,
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_sizes() {
        assert!(FlexVol::new(
            VolumeId(0),
            FlexVolConfig {
                size_blocks: 10,
                aa_cache: true,
                aa_blocks: None,
            },
            100
        )
        .is_err());
    }

    #[test]
    fn construction_rejects_spaces_past_the_four_byte_limit() {
        // Rejected before anything is sized by the request.
        for size_blocks in [u32::MAX as u64, 1 << 32, u64::MAX] {
            let cfg = FlexVolConfig {
                size_blocks,
                aa_cache: false,
                aa_blocks: None,
            };
            assert!(matches!(
                FlexVol::new(VolumeId(3), cfg, 100),
                Err(WaflError::InvalidConfig { reason }) if reason.contains("VolumeId(3)")
            ));
        }
    }

    #[test]
    fn remap_returns_previous_pair_for_cow_frees() {
        let mut v = vol();
        assert_eq!(v.remap(5, Vbn(100), Vbn(9000)), None);
        assert_eq!(v.lookup_logical(5), Some(Vbn(100)));
        assert_eq!(v.lookup_vvbn(Vbn(100)), Some(Vbn(9000)));
        // Overwrite: new location, old pair handed back for delayed free.
        assert_eq!(v.remap(5, Vbn(200), Vbn(9500)), Some((Vbn(100), Vbn(9000))));
        assert_eq!(v.lookup_logical(5), Some(Vbn(200)));
        assert_eq!(v.lookup_vvbn(Vbn(100)), None);
    }

    /// Assert two volumes hold the same mapping state after a bind.
    fn assert_same_bind_state(a: &FlexVol, b: &FlexVol, ctx: &str) {
        for l in 0..a.logical_blocks() {
            assert_eq!(a.lookup_logical(l), b.lookup_logical(l), "{ctx}: {l}");
        }
        assert!(a.vvbn_entries().eq(b.vvbn_entries()), "{ctx}: vvbn map");
        assert_eq!(a.delayed_vvbn_frees, b.delayed_vvbn_frees, "{ctx}");
        assert_eq!(a.detached, b.detached, "{ctx}");
    }

    #[test]
    fn staged_remap_batch_matches_per_block_remap() {
        // Four CPs over the same volume pair: first writes (UNMAPPED
        // slots), overwrites beside first writes, then — a snapshot
        // taken — overwrites of pinned blocks only (all detach), and
        // last a CP mixing pinned old versions with ones written since
        // the snapshot (detach beside free).
        let (mut batched, mut looped) = (vol(), vol());
        let mut next_vbn = 0u64;
        let mut state = 0x0005_DEEC_E66Du64;
        for cp in 0..4 {
            if cp == 2 {
                batched.snapshot_create();
                looped.snapshot_create();
            }
            // Distinct logicals in scrambled order, as the op queue
            // delivers them.
            let mut logicals: Vec<u64> = (0..1000).filter(|l| (l + cp) % 3 != 0).collect();
            for i in (1..logicals.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                logicals.swap(i, (state >> 33) as usize % (i + 1));
            }
            let vvbns: Vec<Vbn> = (0..logicals.len() as u64)
                .map(|i| Vbn(next_vbn + i))
                .collect();
            let pvbns: Vec<Vbn> = vvbns.iter().map(|v| Vbn(500_000 + v.get() * 2)).collect();
            next_vbn += logicals.len() as u64;

            let freed = batched.remap_batch(&logicals, &vvbns, &pvbns);
            let mut freed_ref = Vec::new();
            for ((&l, &v), &p) in logicals.iter().zip(&vvbns).zip(&pvbns) {
                if let Some((old_v, old_p)) = looped.remap(l, v, p) {
                    looped.delayed_vvbn_frees.push(old_v);
                    freed_ref.push(old_p);
                }
            }
            assert_eq!(freed, freed_ref, "cp {cp}: freed pvbns, in order");
            assert_same_bind_state(&batched, &looped, &format!("cp {cp}"));
        }
        assert!(batched.detached_blocks() > 0, "the snapshot pinned blocks");
        assert!(!batched.delayed_vvbn_frees.is_empty());
    }

    #[test]
    fn staged_unmap_batch_matches_per_block_unmap() {
        // Four CPs of writes, then deletes: of mapped blocks, of blocks
        // never written or deleted before, and — a snapshot taken before
        // the third — of pinned blocks (detach) beside unpinned ones.
        let (mut batched, mut looped) = (vol(), vol());
        let mut next_vbn = 0u64;
        for cp in 0..4u64 {
            if cp == 2 {
                batched.snapshot_create();
                looped.snapshot_create();
            }
            for l in (0..600).filter(|l| (l + cp) % 4 != 0) {
                let (v, p) = (Vbn(next_vbn), Vbn(500_000 + 2 * next_vbn));
                next_vbn += 1;
                for vol in [&mut batched, &mut looped] {
                    if let Some((old_v, _)) = vol.remap(l, v, p) {
                        vol.delayed_vvbn_frees.push(old_v);
                    }
                }
            }
            let deletes: Vec<u64> = (0..1000).rev().filter(|l| (l * 7 + cp) % 5 == 0).collect();
            let freed = batched.unmap_batch(&deletes);
            let freed_ref: Vec<Vbn> = deletes.iter().filter_map(|&l| looped.unmap(l)).collect();
            assert_eq!(freed, freed_ref, "cp {cp}: freed pvbns, in order");
            assert_same_bind_state(&batched, &looped, &format!("cp {cp}"));
        }
        assert!(batched.detached_blocks() > 0, "the snapshot pinned blocks");
    }

    #[test]
    fn unwritten_blocks_have_no_mapping() {
        let v = vol();
        assert_eq!(v.lookup_logical(0), None);
        assert_eq!(v.lookup_logical(10_000_000), None);
        assert_eq!(v.lookup_vvbn(Vbn(0)), None);
    }

    #[test]
    fn flush_delayed_frees_splits_accounting_at_aa_boundaries() {
        let mut v = vol();
        // A run straddling the AA 0 / AA 1 boundary, queued in scrambled
        // order plus a lone block far away.
        let boundary = RAID_AGNOSTIC_AA_BLOCKS;
        v.bitmap.allocate_run(Vbn(boundary - 50), 100).unwrap();
        v.bitmap.allocate(Vbn(7)).unwrap();
        v.delayed_vvbn_frees = (boundary - 50..boundary + 50).rev().map(Vbn).collect();
        v.delayed_vvbn_frees.push(Vbn(7));
        v.drain_cursor = Some((wafl_types::AaId(0), Vbn(100)));
        assert_eq!(v.flush_delayed_frees().unwrap(), 101);
        assert!(v.delayed_vvbn_frees.is_empty());
        assert!(
            v.drain_cursor.is_none(),
            "frees into the cursor's AA invalidate it"
        );
        assert_eq!(v.bitmap.free_blocks(), v.size_blocks());
        v.bitmap.verify_summary();
        // The batch saw both AAs the straddling run touched.
        assert_eq!(v.batch.touched_aas(), 2);
    }

    #[test]
    fn cache_presence_follows_config() {
        let v = vol();
        assert!(v.cache().is_some());
        let v2 = FlexVol::new(
            VolumeId(1),
            FlexVolConfig {
                size_blocks: RAID_AGNOSTIC_AA_BLOCKS,
                aa_cache: false,
                aa_blocks: None,
            },
            100,
        )
        .unwrap();
        assert!(v2.cache().is_none());
    }
}
