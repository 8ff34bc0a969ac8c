//! The aggregate: physical storage, RAID groups, hosted volumes.

use crate::bitset::BitSet;
use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
use crate::delayed_free::DelayedFreeLog;
use crate::obs::FsObs;
use crate::paged_map::check_block_space;
use crate::scrub::{HealthState, ScrubState, ScrubStatus};
use crate::volume::{FlexVol, QueuedOp};
use wafl_bitmap::Bitmap;
use wafl_core::{AaTopology, Hbps, RaidAgnosticCache, RaidAwareCache, ScoreDeltaBatch};
use wafl_media::{HddModel, MediaProfile, ObjectStoreModel, SmrModel, SsdFtl};
use wafl_raid::RaidGeometry;
use wafl_types::{
    AaSizingPolicy, ChecksumStyle, MediaType, RaidGroupId, Vbn, VolumeId, WaflError, WaflResult,
    DEFAULT_STRIPES_PER_AA,
};

/// Per-device media model instance.
pub(crate) enum DeviceMedia {
    /// Conventional hard drive (stateless cost model).
    Hdd(HddModel),
    /// SSD with its own FTL state.
    Ssd(Box<SsdFtl>),
    /// Drive-managed SMR disk with zone state.
    Smr(Box<SmrModel>),
    /// Object store endpoint (only used for RAID-agnostic physical ranges;
    /// kept here so every device slot has a priced backend).
    Object(ObjectStoreModel),
}

impl DeviceMedia {
    /// `device_blocks` counts PVBN-addressable (data) blocks. With AZCS,
    /// the physical device also holds one checksum block per 63 data
    /// blocks (§3.2.4), so SMR zone accounting sizes the drive in
    /// physical blocks.
    fn for_profile(
        profile: &MediaProfile,
        device_blocks: u64,
        checksum: ChecksumStyle,
    ) -> WaflResult<DeviceMedia> {
        let physical_blocks = match checksum {
            ChecksumStyle::Sector520 => device_blocks,
            ChecksumStyle::Azcs => {
                device_blocks.div_ceil(wafl_types::AZCS_DATA_BLOCKS)
                    * wafl_types::AZCS_REGION_BLOCKS
            }
        };
        Ok(match profile.media {
            MediaType::Hdd => DeviceMedia::Hdd(HddModel::sas_10k()),
            MediaType::Ssd => DeviceMedia::Ssd(Box::new(SsdFtl::new(
                physical_blocks as u32,
                profile.erase_block_blocks as u32,
                profile.over_provisioning,
            )?)),
            MediaType::Smr => {
                let zones = physical_blocks.div_ceil(profile.zone_blocks);
                DeviceMedia::Smr(Box::new(SmrModel::new(zones, profile.zone_blocks)?))
            }
            MediaType::ObjectStore => DeviceMedia::Object(ObjectStoreModel::s3_class()),
        })
    }
}

/// The AA cache guiding a physical VBN range (§3.3): RAID groups get the
/// max-heap; natively redundant storage (object stores) gets a FlexVol's
/// cache, the two-page HBPS, and the allocator, the CP and the mount
/// drive it through the same methods as a volume's.
pub(crate) enum GroupCache {
    /// §3.3.1: max-heap over all AAs of a RAID group.
    Heap(RaidAwareCache),
    /// §3.3.2: histogram-based partial sort for storage with built-in
    /// redundancy, where tracking every AA "is not worth the memory".
    Hbps(Box<RaidAgnosticCache>),
}

/// Runtime state of one RAID group (or natively redundant range).
pub struct RaidGroupState {
    /// Geometry (device counts, capacity, PVBN base).
    pub geometry: RaidGeometry,
    /// AA tiling (consecutive stripes).
    pub(crate) topology: AaTopology,
    /// AA cache; `None` when the aggregate AA cache is disabled.
    pub(crate) cache: Option<GroupCache>,
    /// Media description.
    pub profile: MediaProfile,
    /// Per-device media state: `data_devices` entries then
    /// `parity_devices` entries.
    pub(crate) media: Vec<DeviceMedia>,
    /// AA height in stripes (after sizing policy).
    pub stripes_per_aa: u64,
    /// Score deltas accumulated during the current CP.
    pub(crate) batch: ScoreDeltaBatch,
    /// The AA currently being drained. WAFL assigns *all* free VBNs of a
    /// picked AA in sequential order (§3.1) — the AA stays the active
    /// allocation context across CPs until exhausted, and stays out of
    /// the max-heap meanwhile.
    pub(crate) active_aa: Option<wafl_types::AaId>,
    /// Per-device AZCS stream state: the next data DBN expected to extend
    /// each device's open checksum region (`u64::MAX` = no open stream).
    /// Indexed like `media` (data devices then parity).
    pub(crate) azcs_next: Vec<u64>,
    /// Structure-level quarantine: the group's TopAA cache is suspect
    /// (degraded at mount, or a scrub read of it failed). Allocation
    /// bypasses it and sweeps the bitmap until its repair ticket settles.
    pub(crate) cache_quarantined: bool,
    /// HBPS picks seen by this group, for the sampled pick-error audit
    /// (`allocator::PickAudit`).
    pub(crate) pick_audit_tick: u64,
}

impl RaidGroupState {
    /// Group `index` of the aggregate, built from `spec` with its PVBN
    /// range starting at `base`. Its AA cache is left for the caller to
    /// build once the bitmap covers the range.
    fn new(
        index: usize,
        spec: &RaidGroupSpec,
        base: u64,
        cfg: &AggregateConfig,
    ) -> WaflResult<RaidGroupState> {
        // Saturating: a size whose product overflows is past the limit.
        let blocks = u64::from(spec.data_devices).saturating_mul(spec.device_blocks);
        check_block_space("aggregate physical space", base.saturating_add(blocks))?;
        let geometry = RaidGeometry::new(
            RaidGroupId(index as u32),
            spec.data_devices,
            spec.parity_devices,
            spec.device_blocks,
            Vbn(base),
        )?;
        if spec.profile.media == MediaType::ObjectStore
            && (spec.parity_devices != 0 || spec.data_devices != 1)
        {
            return Err(WaflError::InvalidConfig {
                reason: format!(
                    "object-store range {index} provides native redundancy: \
                     configure it as 1 data device, 0 parity"
                ),
            });
        }
        let policy = cfg.aa_policy_override.unwrap_or_else(|| {
            AaSizingPolicy::for_media(
                spec.profile.media,
                cfg.checksum,
                spec.profile.device_unit_blocks(),
            )
        });
        // RAID-agnostic policies size AAs in consecutive blocks; with a
        // single logical device, stripes == blocks, so the same
        // stripe-based topology machinery serves both shapes.
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
        let media = (0..spec.data_devices + spec.parity_devices)
            .map(|_| DeviceMedia::for_profile(&spec.profile, spec.device_blocks, cfg.checksum))
            .collect::<WaflResult<Vec<_>>>()?;
        Ok(RaidGroupState {
            geometry,
            topology,
            cache: None,
            profile: spec.profile.clone(),
            azcs_next: vec![u64::MAX; media.len()],
            media,
            stripes_per_aa,
            batch: ScoreDeltaBatch::new(),
            active_aa: None,
            cache_quarantined: false,
            pick_audit_tick: 0,
        })
    }

    /// Rebuild the AA cache from `bitmap`: a max-heap for a RAID group,
    /// an HBPS for natively redundant storage. The rebuilt cache ranks
    /// every AA, so none stays active beside it.
    pub(crate) fn rebuild_cache(&mut self, bitmap: &Bitmap) -> WaflResult<()> {
        let cache = if self.profile.media == MediaType::ObjectStore {
            let cache = RaidAgnosticCache::build(self.topology.clone(), bitmap)?;
            GroupCache::Hbps(Box::new(cache))
        } else {
            let max = (0..self.topology.aa_count())
                .map(|a| self.topology.aa_blocks(wafl_types::AaId(a)) as u32)
                .collect();
            let scores = self.topology.all_scores(bitmap).into_iter();
            let scores = scores.map(|(_, s)| s).collect();
            GroupCache::Heap(RaidAwareCache::new_full(scores, max)?)
        };
        self.cache = Some(cache);
        self.active_aa = None;
        Ok(())
    }

    /// Bitmap pages a scan of the group's range reads: what a replenish
    /// of its HBPS is charged.
    pub(crate) fn scan_pages(&self) -> u64 {
        (self.geometry.data_blocks() / wafl_types::BITS_PER_BITMAP_BLOCK).max(1)
    }

    /// The group's AA topology.
    pub fn topology(&self) -> &AaTopology {
        &self.topology
    }

    /// The group's max-heap cache, if enabled and RAID-backed. `None`
    /// for natively redundant (HBPS-cached) ranges.
    pub fn cache(&self) -> Option<&RaidAwareCache> {
        match self.cache.as_ref() {
            Some(GroupCache::Heap(h)) => Some(h),
            _ => None,
        }
    }

    /// The group's HBPS cache, if enabled and natively redundant.
    pub fn hbps_cache(&self) -> Option<&Hbps> {
        match self.cache.as_ref() {
            Some(GroupCache::Hbps(c)) => Some(c.hbps()),
            _ => None,
        }
    }

    /// The AA the allocator is filling, if any — out of the max-heap
    /// until it is drained (§3.1).
    pub fn active_aa(&self) -> Option<wafl_types::AaId> {
        self.active_aa
    }

    /// Whether the group's TopAA cache is structure-quarantined
    /// (allocation bypasses it and sweeps the bitmap).
    pub fn cache_quarantined(&self) -> bool {
        self.cache_quarantined
    }

    /// Mean write amplification across this group's SSDs (1.0 for
    /// non-SSD groups or before any writes).
    pub fn mean_write_amplification(&self) -> f64 {
        mean_ssd_write_amplification(&self.media)
    }

    /// Total SMR drive interventions across this group's devices.
    pub fn smr_interventions(&self) -> u64 {
        self.media
            .iter()
            .map(|m| match m {
                DeviceMedia::Smr(s) => s.stats().interventions,
                _ => 0,
            })
            .sum()
    }

    /// Reset media counters (after aging, before measurement).
    pub fn reset_media_stats(&mut self) {
        for m in &mut self.media {
            match m {
                DeviceMedia::Ssd(ftl) => ftl.reset_stats(),
                DeviceMedia::Smr(s) => s.reset_stats(),
                _ => {}
            }
        }
    }
}

/// Mean write amplification of the SSDs among `media` (1.0 without one).
fn mean_ssd_write_amplification<'a>(media: impl IntoIterator<Item = &'a DeviceMedia>) -> f64 {
    let was: Vec<f64> = media
        .into_iter()
        .filter_map(|m| match m {
            DeviceMedia::Ssd(ftl) => Some(ftl.write_amplification()),
            _ => None,
        })
        .collect();
    if was.is_empty() {
        1.0
    } else {
        was.iter().sum::<f64>() / was.len() as f64
    }
}

/// The error for a volume id the aggregate does not host.
pub(crate) fn no_volume(vol: VolumeId) -> WaflError {
    WaflError::InvalidConfig {
        reason: format!("no volume {vol}"),
    }
}

/// The aggregate: the physical WAFL instance hosting FlexVols (§2.1).
pub struct Aggregate {
    pub(crate) cfg: AggregateConfig,
    /// Physical activemap over the whole PVBN space.
    pub(crate) bitmap: Bitmap,
    pub(crate) groups: Vec<RaidGroupState>,
    /// Hosted volumes, each with its queue of client ops (`FlexVol::queued`).
    pub(crate) vols: Vec<FlexVol>,
    /// PVBNs freed by overwrites, applied at the CP boundary (§3.3's
    /// delayed frees).
    pub(crate) delayed_pvbn_frees: Vec<Vbn>,
    /// Blocks allocated by an aging seed (`aging::seed_rg_*`): the one
    /// kind of owner no volume map can give back. Every other "who owns
    /// this pvbn" is derived from the volumes' vvbn → pvbn maps by the two
    /// readers that ask, segment cleaning and Iron.
    pub(crate) seeds: BitSet,
    /// Pending physical frees when `batched_frees` is configured.
    pub(crate) free_log: DelayedFreeLog,
    /// Completed CPs.
    pub(crate) cp_count: u64,
    /// Observability handles for the allocator pipeline. Host state: the
    /// counters survive simulated crashes and remounts of this instance.
    pub(crate) obs: FsObs,
    /// Runtime scrubber: cursor, repair tickets, health state machine.
    pub(crate) scrub: ScrubState,
}

impl Aggregate {
    /// Build an aggregate and its volumes. `vols` pairs each volume's
    /// config with its client-addressable (logical) size.
    pub fn new(
        cfg: AggregateConfig,
        vols: &[(FlexVolConfig, u64)],
        _seed: u64,
    ) -> WaflResult<Aggregate> {
        if cfg.raid_groups.is_empty() {
            return Err(WaflError::InvalidConfig {
                reason: "aggregate needs at least one RAID group".into(),
            });
        }
        if cfg.write_shards != 1 {
            return Err(WaflError::InvalidConfig {
                reason: "write_shards must be 1: there is one physical planner".into(),
            });
        }
        let mut groups = Vec::with_capacity(cfg.raid_groups.len());
        let mut base = 0u64;
        for (i, spec) in cfg.raid_groups.iter().enumerate() {
            let g = RaidGroupState::new(i, spec, base, &cfg)?;
            base += g.geometry.data_blocks();
            groups.push(g);
        }
        let bitmap = Bitmap::new(base);
        if cfg.raid_aware_cache {
            for g in &mut groups {
                g.rebuild_cache(&bitmap)?;
            }
        }
        let vols = vols
            .iter()
            .enumerate()
            .map(|(i, &(vcfg, logical))| FlexVol::new(VolumeId(i as u32), vcfg, logical))
            .collect::<WaflResult<Vec<_>>>()?;
        let scrub = ScrubState::new(cfg.scrub_pages_per_cp);
        let mut obs = FsObs::default();
        if cfg.trace_events > 0 {
            obs.enable_tracing(cfg.trace_events);
        }
        Ok(Aggregate {
            cfg,
            bitmap,
            groups,
            vols,
            delayed_pvbn_frees: Vec::new(),
            seeds: BitSet::default(),
            free_log: DelayedFreeLog::new(),
            cp_count: 0,
            obs,
            scrub,
        })
    }

    /// Grow the aggregate by one RAID group (§3.1: "On RAID group
    /// creation and growth, WAFL maintains the mapping of physical VBN
    /// ranges to storage devices" — and §4.2: "customers increase the
    /// storage capacity of an aggregate over time by adding discrete RAID
    /// groups"). The new group's PVBN range starts where the aggregate
    /// currently ends; its AA cache is built immediately (everything is
    /// free, so no bitmap walk is needed in spirit — we build from the
    /// extended bitmap).
    pub fn add_raid_group(&mut self, spec: RaidGroupSpec) -> WaflResult<RaidGroupId> {
        let base = self.bitmap.space_len();
        let mut g = RaidGroupState::new(self.groups.len(), &spec, base, &self.cfg)?;
        self.bitmap.extend(base + spec.data_blocks())?;
        if self.cfg.raid_aware_cache {
            g.rebuild_cache(&self.bitmap)?;
        }
        let id = g.geometry.id;
        self.groups.push(g);
        self.cfg.raid_groups.push(spec);
        Ok(id)
    }

    /// Check a client mutation of `logical` in `vol`: the volume exists,
    /// the block is in its range, and the scrubber does not have the
    /// aggregate in [`HealthState::ReadOnly`] (a repair exhausted its
    /// retry budget; allocation can no longer trust the free-space
    /// metadata).
    #[inline]
    fn check_mutation(&self, vol: VolumeId, logical: u64) -> WaflResult<()> {
        if self.scrub.health() == HealthState::ReadOnly {
            return Err(WaflError::ReadOnly {
                reason: self
                    .scrub
                    .read_only_reason()
                    .unwrap_or("scrub escalation")
                    .to_string(),
            });
        }
        let v = self.vols.get(vol.index()).ok_or_else(|| no_volume(vol))?;
        if logical >= v.logical_blocks() {
            return Err(WaflError::VbnOutOfRange {
                vbn: Vbn(logical),
                space_len: v.logical_blocks(),
            });
        }
        Ok(())
    }

    /// Queue a client overwrite of `logical` in `vol` for the next CP.
    /// Ops on one block within one CP coalesce, and the last one wins
    /// (§2.1): a write after a delete maps the block again.
    pub fn client_overwrite(&mut self, vol: VolumeId, logical: u64) -> WaflResult<()> {
        self.check_mutation(vol, logical)?;
        self.vols[vol.index()].queue(logical, QueuedOp::Write);
        Ok(())
    }

    /// Queue a deletion of `logical` in `vol`: the block's virtual and
    /// physical VBNs are freed at the next CP boundary (file deletions are
    /// one of the §2.2 fragmentation sources). Deleting an unmapped block
    /// is a no-op, matching hole-punching semantics; a delete after a
    /// write in the same CP cancels the write.
    pub fn client_delete(&mut self, vol: VolumeId, logical: u64) -> WaflResult<()> {
        self.check_mutation(vol, logical)?;
        self.vols[vol.index()].queue(logical, QueuedOp::Delete);
        Ok(())
    }

    /// Cost (µs) of reading `logical` from `vol` at the media layer.
    /// Unmapped blocks read as zeroes for free.
    pub fn client_read(&self, vol: VolumeId, logical: u64) -> WaflResult<f64> {
        let v = self.vols.get(vol.index()).ok_or_else(|| no_volume(vol))?;
        let Some(vvbn) = v.lookup_logical(logical) else {
            return Ok(0.0);
        };
        let Some(pvbn) = v.lookup_vvbn(vvbn) else {
            return Ok(0.0);
        };
        let g = self
            .groups
            .iter()
            .find(|g| g.geometry.contains(pvbn))
            .ok_or_else(|| WaflError::VbnOutOfRange {
                vbn: pvbn,
                space_len: self.bitmap.space_len(),
            })?;
        let loc = g.geometry.vbn_to_loc(pvbn)?;
        Ok(match &g.media[loc.device.index()] {
            DeviceMedia::Hdd(h) => h.random_read_cost_us(1),
            DeviceMedia::Ssd(s) => s.random_read_cost_us(1),
            DeviceMedia::Smr(s) => s.position_us + s.transfer_us,
            DeviceMedia::Object(o) => o.random_read_cost_us(1),
        })
    }

    /// Number of blocks with a client op waiting for the next CP: one per
    /// block, whether its last op is a write or a delete.
    pub fn pending_ops(&self) -> usize {
        self.vols.iter().map(|v| v.queued.len()).sum()
    }

    /// Completed consistency points.
    pub fn cp_count(&self) -> u64 {
        self.cp_count
    }

    /// The aggregate's physical activemap.
    pub fn bitmap(&self) -> &Bitmap {
        &self.bitmap
    }

    /// Hosted volumes.
    pub fn volumes(&self) -> &[FlexVol] {
        &self.vols
    }

    /// RAID groups.
    pub fn groups(&self) -> &[RaidGroupState] {
        &self.groups
    }

    /// Mutable group access (experiments resetting media stats).
    pub fn groups_mut(&mut self) -> &mut [RaidGroupState] {
        &mut self.groups
    }

    /// Aggregate configuration.
    pub fn config(&self) -> &AggregateConfig {
        &self.cfg
    }

    /// Fraction of the physical space free.
    pub fn free_fraction(&self) -> f64 {
        self.bitmap.free_fraction()
    }

    /// Mean write amplification across all SSDs in the aggregate.
    pub fn mean_write_amplification(&self) -> f64 {
        mean_ssd_write_amplification(self.groups.iter().flat_map(|g| &g.media))
    }

    /// Reset every media model's counters (post-aging).
    pub fn reset_media_stats(&mut self) {
        for g in &mut self.groups {
            g.reset_media_stats();
        }
    }

    /// Clear accumulated bitmap dirty-page statistics without running a
    /// CP (post-setup, pre-measurement).
    pub fn bitmapless_dirty_reset(&mut self) {
        self.bitmap.take_dirty_stats();
        for v in &mut self.vols {
            v.bitmap.take_dirty_stats();
        }
    }

    /// The delayed-free log (empty unless `batched_frees` is configured).
    pub fn free_log(&self) -> &DelayedFreeLog {
        &self.free_log
    }

    /// Current aggregate health, as driven by the runtime scrubber.
    pub fn health(&self) -> HealthState {
        self.scrub.health()
    }

    /// Snapshot of the runtime scrubber: health, pending repairs, fenced
    /// cache structures.
    pub fn scrub_status(&self) -> ScrubStatus {
        crate::scrub::status(self)
    }

    /// The metrics registry observing this aggregate's allocator pipeline.
    /// See `docs/observability.md` for the metric catalog;
    /// `Registry::snapshot_json` exports everything as one JSON object.
    pub fn obs(&self) -> &wafl_obs::Registry {
        self.obs.registry()
    }

    /// The flight-recorder trace journal, when the aggregate was
    /// configured with `trace_events > 0`. Snapshot with
    /// [`wafl_obs::trace::Tracer::events`], lay out with
    /// [`wafl_obs::trace::chrome_events`] and export with
    /// [`wafl_obs::trace::render_chrome_trace`].
    pub fn tracer(&self) -> Option<&wafl_obs::trace::Tracer> {
        self.obs.tracer.as_ref()
    }

    /// The per-CP time series sampled at every completed CP, when
    /// tracing is enabled.
    pub fn cp_series(&self) -> Option<&wafl_obs::trace::PerCpSeries> {
        self.obs.cp_series.as_ref()
    }

    /// Discard everything a power loss would: queued client writes and
    /// deletes, delayed frees not yet applied to the bitmaps, and the
    /// CP-in-progress score batches. Persistent state (bitmaps, volume
    /// maps, the delayed-free *log*) survives.
    pub(crate) fn lose_volatile_state(&mut self) {
        self.delayed_pvbn_frees.clear();
        for v in &mut self.vols {
            v.take_queued();
            v.delayed_vvbn_frees.clear();
            let _ = v.batch.drain().count();
        }
        for g in &mut self.groups {
            let _ = g.batch.drain().count();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaidGroupSpec;

    fn small_cfg() -> AggregateConfig {
        AggregateConfig::single_group(RaidGroupSpec {
            data_devices: 3,
            parity_devices: 1,
            device_blocks: 4096,
            profile: MediaProfile::hdd(),
        })
    }

    #[test]
    fn construction_wires_groups_and_vols() {
        let agg = Aggregate::new(
            small_cfg(),
            &[(
                FlexVolConfig {
                    size_blocks: 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1000,
            )],
            1,
        )
        .unwrap();
        assert_eq!(agg.groups().len(), 1);
        assert_eq!(agg.volumes().len(), 1);
        assert_eq!(agg.bitmap().space_len(), 3 * 4096);
        assert_eq!(agg.free_fraction(), 1.0);
        assert!(agg.groups()[0].cache().is_some());
    }

    #[test]
    fn client_ops_name_the_missing_volume_and_the_bad_block() {
        let mut agg = Aggregate::new(small_cfg(), &[(FlexVolConfig::default(), 1000)], 1).unwrap();
        let no_volume = WaflError::InvalidConfig {
            reason: "no volume VolumeId(9)".into(),
        };
        let past_end = WaflError::VbnOutOfRange {
            vbn: Vbn(1000),
            space_len: 1000,
        };
        let (ghost, vol) = (VolumeId(9), VolumeId(0));
        assert_eq!(agg.client_overwrite(ghost, 0), Err(no_volume.clone()));
        assert_eq!(agg.client_delete(ghost, 0), Err(no_volume.clone()));
        assert_eq!(agg.client_read(ghost, 0), Err(no_volume));
        assert_eq!(agg.client_overwrite(vol, 1000), Err(past_end.clone()));
        assert_eq!(agg.client_delete(vol, 1000), Err(past_end));
        // Reads past the end see a hole, like any unmapped block.
        assert_eq!(agg.client_read(vol, 1000), Ok(0.0));
        assert_eq!(agg.pending_ops(), 0, "a rejected op queues nothing");
    }

    #[test]
    fn empty_aggregate_rejected() {
        let cfg = AggregateConfig {
            raid_groups: vec![],
            ..small_cfg()
        };
        assert!(Aggregate::new(cfg, &[], 1).is_err());
    }

    /// `write_shards` selected a planner once; there is one planner now and
    /// the field is fixed at 1 until the benchmark stops printing it.
    #[test]
    fn write_shards_other_than_one_is_rejected() {
        for write_shards in [0, 2] {
            let cfg = AggregateConfig {
                write_shards,
                ..small_cfg()
            };
            assert!(matches!(
                Aggregate::new(cfg, &[(FlexVolConfig::default(), 1024)], 1),
                Err(WaflError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn physical_space_past_the_four_byte_limit_is_rejected() {
        let group = |data_devices, device_blocks| RaidGroupSpec {
            data_devices,
            parity_devices: 1,
            device_blocks,
            profile: MediaProfile::hdd(),
        };
        let rejected = |groups: Vec<RaidGroupSpec>| {
            let cfg = AggregateConfig {
                raid_groups: groups,
                ..small_cfg()
            };
            matches!(
                Aggregate::new(cfg, &[], 1),
                Err(WaflError::InvalidConfig { reason }) if reason.contains("physical space")
            )
        };
        // One group at the limit, two that only reach it together, and a
        // size whose product overflows — all before any bitmap is sized.
        assert!(rejected(vec![group(4, 1 << 30)]));
        assert!(rejected(vec![group(2, 1 << 30), group(2, 1 << 30)]));
        assert!(rejected(vec![group(3, u64::MAX / 2)]));
        // Growth is held to the same limit and leaves the aggregate alone.
        let mut agg = Aggregate::new(small_cfg(), &[], 1).unwrap();
        let before = agg.bitmap().space_len();
        assert!(matches!(
            agg.add_raid_group(group(4, 1 << 30)),
            Err(WaflError::InvalidConfig { .. })
        ));
        assert_eq!(agg.bitmap().space_len(), before);
        assert_eq!(agg.groups().len(), 1);
    }

    #[test]
    fn overwrites_coalesce_within_a_cp() {
        let mut agg = Aggregate::new(
            small_cfg(),
            &[(
                FlexVolConfig {
                    size_blocks: 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1000,
            )],
            1,
        )
        .unwrap();
        agg.client_overwrite(VolumeId(0), 5).unwrap();
        agg.client_overwrite(VolumeId(0), 5).unwrap();
        agg.client_overwrite(VolumeId(0), 6).unwrap();
        assert_eq!(agg.pending_ops(), 2);
        // A delete queues its block like a write, once, whatever came
        // before it.
        agg.client_delete(VolumeId(0), 6).unwrap();
        agg.client_delete(VolumeId(0), 7).unwrap();
        agg.client_delete(VolumeId(0), 7).unwrap();
        assert_eq!(agg.pending_ops(), 3);
        assert!(agg.client_overwrite(VolumeId(0), 1000).is_err());
        assert!(agg.client_overwrite(VolumeId(9), 0).is_err());
    }

    #[test]
    fn reads_of_unwritten_blocks_are_free() {
        let agg = Aggregate::new(
            small_cfg(),
            &[(
                FlexVolConfig {
                    size_blocks: 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1000,
            )],
            1,
        )
        .unwrap();
        assert_eq!(agg.client_read(VolumeId(0), 7).unwrap(), 0.0);
    }

    #[test]
    fn cache_disabled_leaves_none() {
        let cfg = AggregateConfig {
            raid_aware_cache: false,
            ..small_cfg()
        };
        let agg = Aggregate::new(cfg, &[], 1).unwrap();
        assert!(agg.groups()[0].cache().is_none());
    }

    #[test]
    fn ssd_groups_get_ftl_per_device() {
        let cfg = AggregateConfig::single_group(RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks: 64 * 100,
            profile: MediaProfile::ssd(),
        });
        let agg = Aggregate::new(cfg, &[], 1).unwrap();
        assert_eq!(agg.groups()[0].media.len(), 3);
        assert_eq!(agg.mean_write_amplification(), 1.0);
        // SSD default policy: AA column is a multiple of the erase block.
        assert_eq!(agg.groups()[0].stripes_per_aa % 512, 0);
    }
}
