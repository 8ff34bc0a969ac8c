//! The frozen sequential reference implementation of the CP write
//! pipeline — the per-block pipeline that shipped before production
//! `wafl-fs` batched its CP by run.
//!
//! Production `wafl-fs` used to keep this code alive behind a config
//! branch in `cp.rs`; retiring the branch moved it here, verbatim in
//! behavior: cache-guided AA selection from the max-heap / HBPS caches,
//! per-run virtual drains, per-block physical apply, per-block binding,
//! per-block delayed frees, and per-block media costing. The production
//! pipeline must leave an aggregate in the same observable state as
//! this oracle — layout, mappings, per-group costing and the allocator's
//! counters — and `crates/fs/tests/oracle_parity.rs` enforces exactly
//! that.
//!
//! Deliberate scope cuts versus `wafl-fs` (none affect the parity
//! workloads, which run cache-guided on clean HDD aggregates):
//!
//! * cache-guided mode only — the random-AA baseline arms never ran
//!   through the legacy pipeline's parity suites;
//! * HDD media only, `Sector520` checksums, no TRIM;
//! * no snapshots, scrub, quarantine, fault injection, or batched
//!   frees — those subsystems sit outside the pipeline this crate
//!   preserves;
//! * the sampled pick-quality audits are skipped: they only feed
//!   statistics and never influence allocator state.
//!
//! This crate is a dev-dependency only. Nothing in production depends
//! on it; it exists so the parity suites keep an independent,
//! change-resistant definition of "correct".

use std::collections::HashMap;
use wafl_bitmap::Bitmap;
use wafl_core::{AaTopology, RaidAgnosticCache, RaidAwareCache, ScoreDeltaBatch};
use wafl_media::{HddModel, MediaProfile};
use wafl_raid::{analyze_cp_write, RaidGeometry};
use wafl_types::{
    AaId, AaScore, AaSizingPolicy, ChecksumStyle, MediaType, RaidGroupId, Vbn, VolumeId, WaflError,
    WaflResult, DEFAULT_STRIPES_PER_AA, RAID_AGNOSTIC_AA_BLOCKS,
};

/// Sentinel for "no mapping" (mirrors `wafl-fs`'s volume sentinel).
const UNMAPPED: u64 = u64::MAX;

/// Owner sentinel: block free / untracked.
const OWNER_NONE: u64 = u64::MAX;

/// Pack a (volume, vvbn) owner reference: 24 bits of volume above 40 of
/// vvbn ([`OracleAggregate::owner_of`] unpacks).
fn pack_owner(vol: VolumeId, vvbn: Vbn) -> u64 {
    ((vol.get() as u64) << 40) | vvbn.get()
}

/// One RAID group of identical HDDs.
#[derive(Clone, Copy, Debug)]
pub struct OracleRaidGroupSpec {
    /// Number of data devices.
    pub data_devices: u32,
    /// Number of parity devices.
    pub parity_devices: u32,
    /// Blocks per device (= stripes in the group).
    pub device_blocks: u64,
}

/// One volume: virtual space size plus an optional AA-size override.
/// The AA cache is always on — the oracle models the paper's design
/// arm, which is what every parity workload runs.
#[derive(Clone, Copy, Debug)]
pub struct OracleVolSpec {
    /// Virtual VBN space size in blocks.
    pub size_blocks: u64,
    /// Virtual AA size in blocks (`None` = the 32 Ki default).
    pub aa_blocks: Option<u64>,
}

/// Per-RAID-group results of one oracle CP. Field-for-field the shape
/// of `wafl_fs::RgCpStats`, so costing parity can compare every number.
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

/// Results of one oracle consistency point — the subset of
/// `wafl_fs::CpStats` the legacy pipeline computed from simulated state
/// (no wall clocks; the oracle is a specification, not a benchmark).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OracleCpStats {
    /// Client write operations flushed.
    pub ops: u64,
    /// Data blocks written.
    pub blocks_written: u64,
    /// Distinct bitmap-metafile pages dirtied (aggregate + volumes).
    pub metafile_pages: u64,
    /// Per-group breakdown.
    pub per_rg: Vec<OracleRgStats>,
    /// Media time of the CP: max across groups, µs.
    pub media_us: f64,
    /// Sum of device time across all groups, µs.
    pub media_us_total: f64,
    /// Modelled CPU time consumed by this CP, µs.
    pub cpu_us: f64,
    /// CPU time spent purely on AA-cache maintenance, µs.
    pub cache_maintenance_us: f64,
    /// Candidate block positions examined by the allocator.
    pub blocks_examined: u64,
    /// AAs picked for physical allocation.
    pub agg_picks: u64,
    /// Sum over picked physical AAs of (score / AA blocks).
    pub agg_pick_free_sum: f64,
    /// AAs picked for virtual allocation.
    pub vol_picks: u64,
    /// Sum over picked virtual AAs of (score / AA blocks).
    pub vol_pick_free_sum: f64,
    /// Bitmap pages scanned by replenish walks during this CP.
    pub replenish_pages: u64,
    /// Volume drains resumed from a per-AA cursor.
    pub cursor_hits: u64,
    /// Volume drains that started from the AA's first VBN.
    pub cursor_misses: u64,
}

/// The CPU cost model constants, matching `wafl_fs::CpuModel::default()`.
const BASE_US_PER_OP: f64 = 200.0;
const US_PER_ALLOC_CANDIDATE: f64 = 35.0;
const US_PER_METAFILE_PAGE: f64 = 30.0;
const US_PER_BLOCK: f64 = 0.15;
const US_PER_CACHE_OP: f64 = 0.2;
const US_PER_SCAN_PAGE: f64 = 4.0;

/// A client write queued for the next CP.
#[derive(Clone, Copy, Debug)]
struct DirtyBlock {
    vol: VolumeId,
    logical: u64,
}

/// Allocation plan for one space (the oracle's `AllocOutcome`): VBNs in
/// assignment order plus the bookkeeping the CP engine needs.
#[derive(Debug, Default)]
struct Plan {
    vbns: Vec<Vbn>,
    picked: Vec<(AaId, AaScore)>,
    drained: Vec<AaId>,
    blocks_examined: u64,
    replenish_pages: u64,
    runs: Vec<(Vbn, u64)>,
    cursor_hits: u64,
    cursor_misses: u64,
}

/// Drain free VBNs of the ranges from `bitmap` (read-only) in write
/// order, up to `quota` total in `out`. Returns whether the ranges were
/// exhausted. Verbatim `wafl_fs::allocator::drain_ranges`.
fn drain_ranges(ranges: &[(Vbn, u64)], bitmap: &Bitmap, quota: usize, out: &mut Plan) -> bool {
    for &(start, len) in ranges {
        let mut last_taken: Option<u64> = None;
        for (run_start, run_len) in bitmap.free_runs_in_range(start, len) {
            let remaining = (quota - out.vbns.len()) as u64;
            if remaining == 0 {
                if let Some(last) = last_taken {
                    out.blocks_examined += last - start.get() + 1;
                }
                return false;
            }
            let take = run_len.min(remaining);
            out.vbns.extend((0..take).map(|i| Vbn(run_start.get() + i)));
            out.runs.push((run_start, take));
            last_taken = Some(run_start.get() + take - 1);
            if take < run_len {
                out.blocks_examined += run_start.get() + take - start.get();
                return false;
            }
        }
        out.blocks_examined += len;
    }
    true
}

/// Popcount an AA's free blocks directly from the raw bits.
fn popcount_score(topology: &AaTopology, bitmap: &Bitmap, aa: AaId) -> u32 {
    topology
        .aa_vbn_ranges(aa)
        .iter()
        .map(|&(start, len)| bitmap.free_count_range_popcount(start, len))
        .sum()
}

/// Add each pick's free fraction at claim time (score / AA blocks) to
/// `sum`, one pick at a time: the production CP adds them in this order,
/// and f64 sums are compared bit for bit.
fn add_pick_fractions(sum: &mut f64, topology: &AaTopology, picked: &[(AaId, AaScore)]) {
    for &(aa, score) in picked {
        let max = topology.aa_blocks(aa) as f64;
        *sum += score.get() as f64 / max.max(1.0);
    }
}

/// Runtime state of one RAID group.
pub struct OracleGroup {
    /// Geometry (device counts, capacity, PVBN base).
    pub geometry: RaidGeometry,
    topology: AaTopology,
    cache: RaidAwareCache,
    hdd: HddModel,
    stripes_per_aa: u64,
    batch: ScoreDeltaBatch,
    active_aa: Option<AaId>,
}

impl OracleGroup {
    /// The group's AA topology.
    pub fn topology(&self) -> &AaTopology {
        &self.topology
    }
}

/// One hosted volume: virtual activemap, mappings, RAID-agnostic cache.
pub struct OracleVol {
    id: VolumeId,
    bitmap: Bitmap,
    topology: AaTopology,
    cache: RaidAgnosticCache,
    logical_map: Vec<u64>,
    dirty_stamp: Vec<u8>,
    vvbn_map: HashMap<u64, u64>,
    batch: ScoreDeltaBatch,
    delayed_vvbn_frees: Vec<Vbn>,
    active_aa: Option<AaId>,
    drain_cursor: Option<(AaId, Vbn)>,
}

impl OracleVol {
    /// Free virtual VBNs.
    pub fn free_blocks(&self) -> u64 {
        self.bitmap.free_blocks()
    }

    /// Current virtual VBN of a logical block (`None` if never written).
    pub fn lookup_logical(&self, logical: u64) -> Option<Vbn> {
        let v = *self.logical_map.get(logical as usize)?;
        (v != UNMAPPED).then_some(Vbn(v))
    }

    /// Physical VBN backing a virtual VBN.
    pub fn lookup_vvbn(&self, vvbn: Vbn) -> Option<Vbn> {
        self.vvbn_map.get(&vvbn.get()).copied().map(Vbn)
    }

    /// Read access to the volume's activemap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// The volume's AA topology.
    pub fn topology(&self) -> &AaTopology {
        &self.topology
    }

    /// Record that `logical` now lives at (`vvbn`, `pvbn`); returns the
    /// previous pair for the delayed-free path (no snapshots here).
    fn remap(&mut self, logical: u64, vvbn: Vbn, pvbn: Vbn) -> Option<(Vbn, Vbn)> {
        let old_v = self.logical_map[logical as usize];
        self.logical_map[logical as usize] = vvbn.get();
        self.vvbn_map.insert(vvbn.get(), pvbn.get());
        if old_v == UNMAPPED {
            return None;
        }
        let old_p = self
            .vvbn_map
            .remove(&old_v)
            .expect("mapped vvbn lacked a pvbn");
        Some((Vbn(old_v), Vbn(old_p)))
    }

    /// Remove `logical`'s mapping entirely (deletion / hole punch).
    fn unmap(&mut self, logical: u64) -> Option<(Vbn, Vbn)> {
        let old_v = self.logical_map[logical as usize];
        if old_v == UNMAPPED {
            return None;
        }
        self.logical_map[logical as usize] = UNMAPPED;
        let old_p = self
            .vvbn_map
            .remove(&old_v)
            .expect("mapped vvbn lacked a pvbn");
        Some((Vbn(old_v), Vbn(old_p)))
    }

    /// Apply the CP boundary's delayed virtual frees in bulk: sorted
    /// span walk for score accounting and cursor invalidation, then one
    /// batch free. Verbatim `FlexVol::flush_delayed_frees`.
    fn flush_delayed_frees(&mut self) -> WaflResult<u64> {
        let mut frees = std::mem::take(&mut self.delayed_vvbn_frees);
        if frees.is_empty() {
            return Ok(0);
        }
        frees.sort_unstable();
        let total = frees.len() as u64;
        let mut span_aa = AaId(0);
        let mut span_end = Vbn(0);
        let mut span_freed: u32 = 0;
        for &vbn in &frees {
            if vbn >= span_end {
                if span_freed > 0 {
                    self.batch.record_freed(span_aa, span_freed);
                    if self.drain_cursor.map(|(c, _)| c) == Some(span_aa) {
                        self.drain_cursor = None;
                    }
                }
                (span_aa, span_end) = self.topology.aa_span_of_vbn(vbn)?;
                span_freed = 0;
            }
            span_freed += 1;
        }
        if span_freed > 0 {
            self.batch.record_freed(span_aa, span_freed);
            if self.drain_cursor.map(|(c, _)| c) == Some(span_aa) {
                self.drain_cursor = None;
            }
        }
        self.bitmap.free_sorted_blocks(&frees)?;
        Ok(total)
    }

    /// Allocate `n` virtual VBNs, updating bitmap and batch in place.
    /// Verbatim `wafl_fs::allocator::allocate_vvbns`, cache-guided arm
    /// (the cache is always present; no quarantine; audits skipped —
    /// they only record statistics).
    fn allocate_vvbns(&mut self, n: usize) -> WaflResult<Plan> {
        let mut out = Plan::default();
        while out.vbns.len() < n {
            let aa = match self.active_aa {
                Some(aa) => aa,
                None => {
                    let picked = match self.cache.pick_best(&self.bitmap) {
                        Some((aa, score)) if score.get() > 0 => Some((aa, score)),
                        _ => {
                            // List drained: replenish from a scan and
                            // retry once.
                            if self.cache.maybe_replenish(&self.bitmap, &mut self.batch)? {
                                out.replenish_pages += self.bitmap.page_count() as u64;
                                self.drain_cursor = None;
                                self.cache
                                    .pick_best(&self.bitmap)
                                    .filter(|(_, s)| s.get() > 0)
                            } else {
                                None
                            }
                        }
                    };
                    match picked {
                        Some((aa, score)) => {
                            out.picked.push((aa, score));
                            self.active_aa = Some(aa);
                            aa
                        }
                        None => {
                            // Linear sweep before declaring the space
                            // full: first AA with free blocks, scored by
                            // popcount.
                            let mut found = None;
                            for aa in 0..self.topology.aa_count() {
                                let aa = AaId(aa);
                                let score = popcount_score(&self.topology, &self.bitmap, aa);
                                if score > 0 {
                                    found = Some((aa, AaScore(score)));
                                    break;
                                }
                            }
                            let Some((aa, score)) = found else {
                                return Err(WaflError::SpaceExhausted);
                            };
                            out.picked.push((aa, score));
                            self.active_aa = Some(aa);
                            aa
                        }
                    }
                }
            };
            let mut ranges = self.topology.aa_vbn_ranges(aa);
            match self.drain_cursor {
                Some((cursor_aa, resume)) if cursor_aa == aa => {
                    out.cursor_hits += 1;
                    ranges.retain_mut(|(start, len)| {
                        let end = start.get() + *len;
                        if end <= resume.get() {
                            false
                        } else {
                            if start.get() < resume.get() {
                                *len = end - resume.get();
                                *start = resume;
                            }
                            true
                        }
                    });
                }
                _ => out.cursor_misses += 1,
            }
            let mut plan = Plan::default();
            let exhausted = drain_ranges(&ranges, &self.bitmap, n - out.vbns.len(), &mut plan);
            for &(start, len) in &plan.runs {
                self.bitmap.allocate_run(start, len)?;
            }
            self.batch.record_allocated(aa, plan.vbns.len() as u32);
            out.blocks_examined += plan.blocks_examined;
            out.vbns.extend_from_slice(&plan.vbns);
            out.runs.extend_from_slice(&plan.runs);
            if exhausted {
                self.active_aa = None;
                self.drain_cursor = None;
                if plan.vbns.is_empty() && out.vbns.len() < n {
                    continue;
                }
            } else {
                let last = plan.vbns.last().expect("quota>0 and not exhausted");
                self.drain_cursor = Some((aa, Vbn(last.get() + 1)));
            }
        }
        Ok(out)
    }
}

/// Plan `quota` physical allocations from one RAID group against a
/// bitmap snapshot. Verbatim `wafl_fs::allocator::plan_raid_group`,
/// cache-guided max-heap arm — except that takes go into the batch here
/// rather than where the runs are applied: nothing reads a heap-cached
/// group's batch before the CP boundary, so the two are the same.
fn plan_raid_group(g: &mut OracleGroup, bitmap: &Bitmap, quota: usize) -> WaflResult<Plan> {
    let mut out = Plan::default();
    while out.vbns.len() < quota {
        let aa = match g.active_aa {
            Some(aa) => aa,
            None => match g.cache.take_best() {
                Some((aa, score)) if score.get() > 0 => {
                    out.picked.push((aa, score));
                    g.active_aa = Some(aa);
                    aa
                }
                Some((aa, _)) => {
                    // Best AA is full: the group is exhausted.
                    out.drained.push(aa);
                    break;
                }
                None => break,
            },
        };
        let before = out.vbns.len();
        // Ranges with no free block are dropped by their summary count
        // and not examined.
        let mut ranges = g.topology.aa_write_ranges(aa);
        ranges.retain(|&(start, len)| bitmap.free_count_range(start, len) > 0);
        let exhausted = drain_ranges(&ranges, bitmap, quota, &mut out);
        let taken = (out.vbns.len() - before) as u32;
        g.batch.record_allocated(aa, taken);
        if exhausted {
            out.drained.push(aa);
            g.active_aa = None;
            if taken == 0 {
                // Stale-score AA with nothing actually free — move on.
                continue;
            }
        } else {
            break; // quota met mid-AA; stays active for the next CP
        }
    }
    Ok(out)
}

/// The sequential oracle aggregate: same client API shape as
/// `wafl_fs::Aggregate` for the operations the parity workloads drive
/// (overwrite, delete, CP), same observable state afterwards.
pub struct OracleAggregate {
    bitmap: Bitmap,
    groups: Vec<OracleGroup>,
    vols: Vec<OracleVol>,
    dirty: Vec<DirtyBlock>,
    cp_epoch: u64,
    pending_deletes: Vec<DirtyBlock>,
    delayed_pvbn_frees: Vec<Vbn>,
    pvbn_owner: Vec<u64>,
    cp_count: u64,
}

impl OracleAggregate {
    /// Build an oracle aggregate and its volumes; mirrors
    /// `Aggregate::new` with the paper's standard HDD defaults.
    pub fn new(
        groups: &[OracleRaidGroupSpec],
        vols: &[(OracleVolSpec, u64)],
    ) -> WaflResult<OracleAggregate> {
        if groups.is_empty() {
            return Err(WaflError::InvalidConfig {
                reason: "oracle aggregate needs at least one RAID group".into(),
            });
        }
        let profile = MediaProfile::hdd();
        let mut group_states = Vec::with_capacity(groups.len());
        let mut base = 0u64;
        for (i, spec) in groups.iter().enumerate() {
            let geometry = RaidGeometry::new(
                RaidGroupId(i as u32),
                spec.data_devices,
                spec.parity_devices,
                spec.device_blocks,
                Vbn(base),
            )?;
            base += spec.data_devices as u64 * spec.device_blocks;
            let policy = AaSizingPolicy::for_media(
                MediaType::Hdd,
                ChecksumStyle::Sector520,
                profile.device_unit_blocks(),
            );
            let stripes_per_aa = policy
                .stripes_per_aa()
                .or_else(|| policy.blocks_per_aa())
                .unwrap_or(DEFAULT_STRIPES_PER_AA)
                .min(spec.device_blocks);
            let topology = AaTopology::raid_aware(
                geometry.clone(),
                AaSizingPolicy::Stripes {
                    stripes: stripes_per_aa,
                },
            )?;
            group_states.push(OracleGroup {
                geometry,
                topology,
                cache: RaidAwareCache::new_full(Vec::new(), Vec::new())?,
                hdd: HddModel::sas_10k(),
                stripes_per_aa,
                batch: ScoreDeltaBatch::new(),
                active_aa: None,
            });
        }
        let bitmap = Bitmap::new(base);
        for g in &mut group_states {
            let scores = g.topology.all_scores(&bitmap);
            let max: Vec<u32> = (0..g.topology.aa_count())
                .map(|a| g.topology.aa_blocks(AaId(a)) as u32)
                .collect();
            g.cache = RaidAwareCache::new_full(scores.into_iter().map(|(_, s)| s).collect(), max)?;
        }
        let vols = vols
            .iter()
            .enumerate()
            .map(|(i, &(spec, logical))| {
                if spec.size_blocks < logical {
                    return Err(WaflError::InvalidConfig {
                        reason: format!(
                            "oracle volume {i}: virtual space {} smaller than logical \
                             space {logical}",
                            spec.size_blocks
                        ),
                    });
                }
                let aa_blocks = spec.aa_blocks.unwrap_or(RAID_AGNOSTIC_AA_BLOCKS);
                let topology = AaTopology::raid_agnostic(
                    spec.size_blocks,
                    AaSizingPolicy::ConsecutiveVbns { blocks: aa_blocks },
                )?;
                let mut bitmap = Bitmap::new(spec.size_blocks);
                bitmap.enable_aa_summary(aa_blocks)?;
                let cache = RaidAgnosticCache::build(topology.clone(), &bitmap)?;
                Ok(OracleVol {
                    id: VolumeId(i as u32),
                    bitmap,
                    topology,
                    cache,
                    logical_map: vec![UNMAPPED; logical as usize],
                    dirty_stamp: vec![0; logical as usize],
                    vvbn_map: HashMap::new(),
                    batch: ScoreDeltaBatch::new(),
                    delayed_vvbn_frees: Vec::new(),
                    active_aa: None,
                    drain_cursor: None,
                })
            })
            .collect::<WaflResult<Vec<_>>>()?;
        let space = bitmap.space_len() as usize;
        Ok(OracleAggregate {
            bitmap,
            groups: group_states,
            vols,
            dirty: Vec::new(),
            cp_epoch: 1,
            pending_deletes: Vec::new(),
            delayed_pvbn_frees: Vec::new(),
            pvbn_owner: vec![OWNER_NONE; space],
            cp_count: 0,
        })
    }

    /// The one-byte stamp marking a block dirty in `epoch`.
    #[inline]
    fn epoch_stamp(epoch: u64) -> u8 {
        1 + (epoch % 255) as u8
    }

    /// Advance the dirty epoch, zeroing stamps at every byte wrap.
    fn bump_epoch(&mut self) {
        self.cp_epoch += 1;
        if self.cp_epoch.is_multiple_of(255) {
            for v in &mut self.vols {
                v.dirty_stamp.fill(0);
            }
        }
    }

    /// Queue a client overwrite; repeated writes within one CP coalesce.
    pub fn client_overwrite(&mut self, vol: VolumeId, logical: u64) -> WaflResult<()> {
        let v = self
            .vols
            .get(vol.index())
            .ok_or_else(|| WaflError::InvalidConfig {
                reason: format!("no volume {vol}"),
            })?;
        if logical >= v.logical_map.len() as u64 {
            return Err(WaflError::VbnOutOfRange {
                vbn: Vbn(logical),
                space_len: v.logical_map.len() as u64,
            });
        }
        let epoch = Self::epoch_stamp(self.cp_epoch);
        let stamp = &mut self.vols[vol.index()].dirty_stamp[logical as usize];
        if *stamp != epoch {
            *stamp = epoch;
            self.dirty.push(DirtyBlock { vol, logical });
        }
        Ok(())
    }

    /// Queue a deletion; the block's VBNs free at the next CP boundary.
    pub fn client_delete(&mut self, vol: VolumeId, logical: u64) -> WaflResult<()> {
        let v = self
            .vols
            .get(vol.index())
            .ok_or_else(|| WaflError::InvalidConfig {
                reason: format!("no volume {vol}"),
            })?;
        if logical >= v.logical_map.len() as u64 {
            return Err(WaflError::VbnOutOfRange {
                vbn: Vbn(logical),
                space_len: v.logical_map.len() as u64,
            });
        }
        self.pending_deletes.push(DirtyBlock { vol, logical });
        Ok(())
    }

    /// Client writes waiting for the next CP.
    pub fn pending_ops(&self) -> usize {
        self.dirty.len()
    }

    /// Completed consistency points.
    pub fn cp_count(&self) -> u64 {
        self.cp_count
    }

    /// Who holds `pvbn` according to the per-block owner table the
    /// oracle keeps maintaining at bind and at free — the independent
    /// reference for the view `wafl-fs` derives from its volume maps.
    /// `None` for a block nobody owns.
    pub fn owner_of(&self, pvbn: Vbn) -> Option<(VolumeId, Vbn)> {
        let packed = *self.pvbn_owner.get(pvbn.index())?;
        let owner = (
            VolumeId((packed >> 40) as u32),
            Vbn(packed & ((1 << 40) - 1)),
        );
        (packed != OWNER_NONE).then_some(owner)
    }

    /// The aggregate's physical activemap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// Hosted volumes.
    pub fn volumes(&self) -> &[OracleVol] {
        &self.vols
    }

    /// RAID groups.
    pub fn groups(&self) -> &[OracleGroup] {
        &self.groups
    }

    /// Physical-allocation quotas per RAID group for `n` blocks.
    /// Verbatim `Aggregate::rg_quotas`, heap-cache arm, HDD media, and
    /// the standard config's `rg_backoff_threshold = 0.0` (the back-off
    /// never fires but stays in the transcription for fidelity).
    fn rg_quotas(&self, n: usize) -> Vec<usize> {
        const RG_BACKOFF_THRESHOLD: f64 = 0.0;
        let weights: Vec<f64> = self
            .groups
            .iter()
            .map(|g| {
                let cache_best = g.cache.best().map(|(_, s)| s.get()).unwrap_or(0);
                let active = g
                    .active_aa
                    .map(|aa| g.topology.score_from_bitmap(&self.bitmap, aa).get())
                    .unwrap_or(0);
                let best = cache_best.max(active) as f64;
                let max = (g.stripes_per_aa * g.geometry.data_devices as u64) as f64;
                let frac = best / max.max(1.0);
                if frac < RG_BACKOFF_THRESHOLD {
                    0.0
                } else {
                    best
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            let per = n / self.groups.len().max(1);
            let mut q = vec![per; self.groups.len()];
            if let Some(first) = q.first_mut() {
                *first += n - per * self.groups.len();
            }
            return q;
        }
        let mut quotas: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * n as f64).floor() as usize)
            .collect();
        let assigned: usize = quotas.iter().sum();
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        for i in 0..n - assigned {
            quotas[order[i % order.len()]] += 1;
        }
        quotas
    }

    /// Run one consistency point — the legacy sequential pipeline,
    /// phase for phase:
    ///
    /// 1. take the dirty set, bump the epoch;
    /// 2. virtual allocation per volume (in volume order);
    /// 3. group quotas, physical plans against the bitmap snapshot,
    ///    per-run apply, serial shortfall rounds;
    /// 4. per-block logical→virtual→physical bind, then queued deletes;
    /// 5. delayed frees: per-volume bulk virtual frees, then per-block
    ///    physical frees;
    /// 6. metafile page accounting;
    /// 7. per-block media costing per group;
    /// 8. CP-boundary cache rebalance;
    /// 9. the CPU cost model.
    pub fn run_cp(&mut self) -> WaflResult<OracleCpStats> {
        let dirty = std::mem::take(&mut self.dirty);
        self.bump_epoch();
        let n = dirty.len();
        let mut stats = OracleCpStats {
            ops: n as u64,
            blocks_written: n as u64,
            ..OracleCpStats::default()
        };
        if n == 0
            && self.pending_deletes.is_empty()
            && self.delayed_pvbn_frees.is_empty()
            && self.vols.iter().all(|v| v.delayed_vvbn_frees.is_empty())
        {
            self.cp_count += 1;
            return Ok(stats);
        }

        // ---- 1. group dirtied blocks by volume ------------------------
        let mut per_vol: Vec<Vec<u64>> = vec![Vec::new(); self.vols.len()];
        for DirtyBlock { vol, logical } in &dirty {
            per_vol[vol.index()].push(*logical);
        }

        // ---- 2. virtual allocation, volume by volume ------------------
        let mut vol_outcomes: Vec<Plan> = Vec::with_capacity(self.vols.len());
        for (vol, logicals) in self.vols.iter_mut().zip(&per_vol) {
            if logicals.is_empty() {
                vol_outcomes.push(Plan::default());
                continue;
            }
            vol_outcomes.push(vol.allocate_vvbns(logicals.len())?);
        }
        for out in &vol_outcomes {
            stats.vol_picks += out.picked.len() as u64;
            stats.replenish_pages += out.replenish_pages;
            stats.blocks_examined += out.blocks_examined;
            stats.cursor_hits += out.cursor_hits;
            stats.cursor_misses += out.cursor_misses;
        }
        for (vol, out) in self.vols.iter().zip(&vol_outcomes) {
            add_pick_fractions(&mut stats.vol_pick_free_sum, &vol.topology, &out.picked);
        }

        // ---- 3. physical allocation: quotas, plans, apply -------------
        let quotas = self.rg_quotas(n);
        let plans: Vec<Plan> = {
            let OracleAggregate { bitmap, groups, .. } = self;
            groups
                .iter_mut()
                .zip(&quotas)
                .map(|(g, &quota)| plan_raid_group(g, bitmap, quota))
                .collect::<WaflResult<_>>()?
        };
        let mut pvbns: Vec<Vbn> = Vec::with_capacity(n);
        let mut per_rg_vbns: Vec<Vec<Vbn>> = Vec::with_capacity(self.groups.len());
        for plan in &plans {
            for &(start, len) in &plan.runs {
                self.bitmap.allocate_run(start, len)?;
            }
            pvbns.extend_from_slice(&plan.vbns);
            per_rg_vbns.push(plan.vbns.clone());
        }
        for (g, plan) in self.groups.iter().zip(&plans) {
            stats.agg_picks += plan.picked.len() as u64;
            stats.blocks_examined += plan.blocks_examined;
            stats.replenish_pages += plan.replenish_pages;
            add_pick_fractions(&mut stats.agg_pick_free_sum, &g.topology, &plan.picked);
        }
        // Shortfall: serial rounds against the updated bitmap.
        let mut drained_late: Vec<(usize, AaId)> = Vec::new();
        let mut shortfall = n.saturating_sub(pvbns.len());
        while shortfall > 0 {
            let mut progressed = false;
            for i in 0..self.groups.len() {
                if shortfall == 0 {
                    break;
                }
                let plan = {
                    let OracleAggregate { bitmap, groups, .. } = self;
                    plan_raid_group(&mut groups[i], bitmap, shortfall)?
                };
                // A plan that found no block is folded in too: a full
                // group returns the score-0 AA `take_best` popped in
                // `drained`, and only step 8 puts it back in the heap.
                progressed |= !plan.vbns.is_empty();
                for &(start, len) in &plan.runs {
                    self.bitmap.allocate_run(start, len)?;
                }
                shortfall -= plan.vbns.len();
                stats.agg_picks += plan.picked.len() as u64;
                stats.blocks_examined += plan.blocks_examined;
                stats.replenish_pages += plan.replenish_pages;
                let topology = &self.groups[i].topology;
                add_pick_fractions(&mut stats.agg_pick_free_sum, topology, &plan.picked);
                pvbns.extend_from_slice(&plan.vbns);
                per_rg_vbns[i].extend_from_slice(&plan.vbns);
                for &aa in &plan.drained {
                    drained_late.push((i, aa));
                }
            }
            if !progressed {
                return Err(WaflError::SpaceExhausted);
            }
        }

        // ---- 4. bind logical -> virtual -> physical -------------------
        let mut pvbn_iter = pvbns.iter().copied();
        for (vol_idx, logicals) in per_vol.iter().enumerate() {
            let outcome = &vol_outcomes[vol_idx];
            let vol = &mut self.vols[vol_idx];
            debug_assert_eq!(outcome.vbns.len(), logicals.len());
            for (&logical, &vvbn) in logicals.iter().zip(&outcome.vbns) {
                let pvbn = pvbn_iter.next().expect("pvbn count == vvbn count");
                self.pvbn_owner[pvbn.index()] = pack_owner(vol.id, vvbn);
                if let Some((old_v, old_p)) = vol.remap(logical, vvbn, pvbn) {
                    vol.delayed_vvbn_frees.push(old_v);
                    self.delayed_pvbn_frees.push(old_p);
                }
            }
        }

        // ---- 4b. deletions queued since the last CP -------------------
        for DirtyBlock { vol, logical } in std::mem::take(&mut self.pending_deletes) {
            let v = &mut self.vols[vol.index()];
            if let Some((old_v, old_p)) = v.unmap(logical) {
                v.delayed_vvbn_frees.push(old_v);
                self.delayed_pvbn_frees.push(old_p);
            }
        }

        // ---- 5. delayed frees at the CP boundary ----------------------
        for vol in &mut self.vols {
            vol.flush_delayed_frees()?;
        }
        for pvbn in std::mem::take(&mut self.delayed_pvbn_frees) {
            self.bitmap.free(pvbn)?;
            self.pvbn_owner[pvbn.index()] = OWNER_NONE;
            let g = self
                .groups
                .iter_mut()
                .find(|g| g.geometry.contains(pvbn))
                .expect("freed pvbn belongs to a group");
            let aa = g.topology.aa_of_vbn(pvbn)?;
            g.batch.record_freed(aa, 1);
        }

        // ---- 6. metafile I/O accounting -------------------------------
        let mut pages = self.bitmap.take_dirty_stats().pages_dirtied;
        for vol in &mut self.vols {
            pages += vol.bitmap.take_dirty_stats().pages_dirtied;
        }
        stats.metafile_pages = pages;

        // ---- 7. media costing, per-block, group by group --------------
        let mut cache_ops = 0u64;
        for (g, vbns) in self.groups.iter_mut().zip(&per_rg_vbns) {
            let rg = cost_raid_group(g, vbns)?;
            stats.media_us = stats.media_us.max(rg.media_us);
            stats.media_us_total += rg.media_us;
            stats.per_rg.push(rg);
        }

        // ---- 8. CP-boundary cache rebalance ---------------------------
        for g in &mut self.groups {
            let touched = g.batch.touched_aas() as u64;
            cache_ops += touched;
            g.cache.apply_batch(&mut g.batch);
        }
        for (g, plan) in self.groups.iter_mut().zip(&plans) {
            for &aa in &plan.drained {
                let score = g.cache.score_of(aa);
                g.cache.insert(aa, score)?;
                cache_ops += 1;
            }
        }
        for (i, aa) in drained_late {
            let g = &mut self.groups[i];
            let score = g.cache.score_of(aa);
            g.cache.insert(aa, score)?;
            cache_ops += 1;
        }
        for vol in &mut self.vols {
            let touched = vol.batch.touched_aas() as u64;
            cache_ops += touched;
            vol.cache.apply_cp_batch(&mut vol.batch, &vol.bitmap)?;
            if vol.cache.maybe_replenish(&vol.bitmap, &mut vol.batch)? {
                vol.drain_cursor = None;
                stats.replenish_pages += vol.bitmap.page_count() as u64;
            }
        }

        // ---- 9. CPU model ---------------------------------------------
        let client_us = n as f64 * BASE_US_PER_OP;
        let metafile_us = pages as f64 * US_PER_METAFILE_PAGE;
        let blocks_us = n as f64 * US_PER_BLOCK;
        let alloc_scan_us = stats.blocks_examined as f64 * US_PER_ALLOC_CANDIDATE;
        stats.cache_maintenance_us = cache_ops as f64 * US_PER_CACHE_OP;
        let replenish_us = stats.replenish_pages as f64 * US_PER_SCAN_PAGE;
        stats.cpu_us = client_us
            + metafile_us
            + blocks_us
            + alloc_scan_us
            + stats.cache_maintenance_us
            + replenish_us;

        self.cp_count += 1;
        Ok(stats)
    }
}

/// Cost one CP's writes to a group per block — the legacy costing path
/// (the production pipeline costs per run; equivalence between the two
/// is what the costing parity test pins). HDD arm of
/// `wafl_fs::cp::cost_raid_group`.
fn cost_raid_group(g: &mut OracleGroup, vbns: &[Vbn]) -> WaflResult<OracleRgStats> {
    let analysis = analyze_cp_write(&g.geometry, vbns)?;
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
    let d = g.geometry.data_devices as usize;
    let mut per_device: Vec<Vec<u64>> = vec![Vec::new(); d];
    for &vbn in vbns {
        let loc = g.geometry.vbn_to_loc(vbn)?;
        per_device[loc.device.index()].push(loc.dbn.get());
    }
    for dev in per_device.iter_mut() {
        dev.sort_unstable();
    }
    let mut stripes: Vec<u64> = vbns
        .iter()
        .map(|&v| g.geometry.vbn_to_loc(v).map(|l| l.dbn.get()))
        .collect::<WaflResult<_>>()?;
    stripes.sort_unstable();
    stripes.dedup();
    let parity_per_dev = if g.geometry.parity_devices > 0 {
        stripes.clone()
    } else {
        Vec::new()
    };
    let device_count = (g.geometry.data_devices + g.geometry.parity_devices) as usize;
    let mut dev_times: Vec<f64> = Vec::with_capacity(device_count);
    for i in 0..device_count {
        let dbns: &[u64] = per_device.get(i).map_or(&parity_per_dev, |dev| dev);
        if dbns.is_empty() {
            dev_times.push(0.0);
            continue;
        }
        let chains = dbns_to_chains(dbns);
        let blocks: u64 = chains.iter().map(|&(_, l)| l).sum();
        dev_times.push(g.hdd.write_cost_us(chains.len() as u64, blocks));
    }
    let parity_read_us = g.hdd.random_read_cost_us(analysis.parity_reads);
    rg.media_us = dev_times.iter().copied().fold(0.0, f64::max) + parity_read_us;
    Ok(rg)
}

/// Collapse a sorted DBN list into maximal `(start, len)` chains —
/// the legacy costing path's chain builder.
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
/// The bulk run mutators in `wafl-bitmap` are equivalence-tested
/// against this loop (`run_mutator_proptest.rs`) — it lives here so the
/// reference semantics stay outside the crate under test.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> OracleAggregate {
        OracleAggregate::new(
            &[OracleRaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
            }],
            &[(
                OracleVolSpec {
                    size_blocks: 8 * 32768,
                    aa_blocks: None,
                },
                50_000,
            )],
        )
        .unwrap()
    }

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
    fn first_writes_allocate_both_vbn_spaces() {
        let mut a = oracle();
        for l in 0..1000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 1000);
        assert_eq!(a.volumes()[0].free_blocks(), 8 * 32768 - 1000);
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096 - 1000);
        assert!(s.media_us > 0.0);
        assert!(s.cpu_us > 0.0);
        assert!(a.volumes()[0].lookup_logical(0).is_some());
        assert!(a.volumes()[0].lookup_logical(999).is_some());
        assert!(a.volumes()[0].lookup_logical(1000).is_none());
    }

    #[test]
    fn overwrites_free_old_blocks_at_cp_boundary() {
        let mut a = oracle();
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        let free_v = a.volumes()[0].free_blocks();
        let free_p = a.bitmap().free_blocks();
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        assert_eq!(a.volumes()[0].free_blocks(), free_v);
        assert_eq!(a.bitmap().free_blocks(), free_p);
        a.bitmap().verify_summary();
    }

    #[test]
    fn deletes_reclaim_space() {
        let mut a = oracle();
        for l in 0..300 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        for l in 0..300 {
            a.client_delete(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        assert_eq!(a.volumes()[0].free_blocks(), 8 * 32768);
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096);
        assert!(a.volumes()[0].lookup_logical(0).is_none());
    }

    #[test]
    fn empty_cp_is_a_noop() {
        let mut a = oracle();
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 0);
        assert_eq!(a.cp_count(), 1);
    }

    #[test]
    fn overwrites_coalesce_within_a_cp() {
        let mut a = oracle();
        a.client_overwrite(VolumeId(0), 5).unwrap();
        a.client_overwrite(VolumeId(0), 5).unwrap();
        a.client_overwrite(VolumeId(0), 6).unwrap();
        assert_eq!(a.pending_ops(), 2);
        assert!(a.client_overwrite(VolumeId(0), 50_000).is_err());
        assert!(a.client_overwrite(VolumeId(9), 0).is_err());
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
}
