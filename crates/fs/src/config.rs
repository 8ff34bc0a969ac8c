//! Configuration of a simulated aggregate and its volumes.

use serde::{Deserialize, Serialize};
use wafl_media::MediaProfile;
use wafl_types::{AaSizingPolicy, ChecksumStyle};

/// One RAID group of identical devices.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RaidGroupSpec {
    /// Number of data devices.
    pub data_devices: u32,
    /// Number of parity devices.
    pub parity_devices: u32,
    /// Blocks per device (= stripes in the group).
    pub device_blocks: u64,
    /// Media backing every device of the group.
    pub profile: MediaProfile,
}

impl RaidGroupSpec {
    /// PVBNs contributed by this group.
    pub fn data_blocks(&self) -> u64 {
        self.data_devices as u64 * self.device_blocks
    }
}

/// Aggregate-level configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AggregateConfig {
    /// The RAID groups, in PVBN order.
    pub raid_groups: Vec<RaidGroupSpec>,
    /// Checksum scheme for all groups (§3.2.4).
    pub checksum: ChecksumStyle,
    /// Override the per-media default AA sizing policy (used by the Fig 8
    /// and Fig 9 experiments, which deliberately run SSD/SMR with the
    /// HDD-sized AA).
    pub aa_policy_override: Option<AaSizingPolicy>,
    /// Whether RAID-aware AA caches guide physical allocation. Disabled in
    /// the Fig 6 "Aggregate AA cache off" arm; allocation then picks
    /// random AAs.
    pub raid_aware_cache: bool,
    /// Skip RAID groups whose best AA score falls below this fraction of
    /// the AA size (§3.3.1's "if the best AA score in a RAID group is
    /// below some threshold ... stop writing to that RAID group").
    /// `0.0` disables the back-off.
    pub rg_backoff_threshold: f64,
    /// Forward delayed frees to SSD FTLs as TRIMs (extension beyond the
    /// paper's experiments; default off).
    pub trim_on_free: bool,
    /// Flash Pool bias (§2.1): multiply SSD RAID groups' allocation
    /// weights so hot write traffic concentrates on the fast tier of a
    /// mixed SSD+HDD aggregate. `1.0` = unbiased.
    pub ssd_tier_bias: f64,
    /// Batch physical frees through the delayed-free log (§3.3.2's second
    /// HBPS use case): freed blocks are applied to the bitmap by a
    /// background processor, fullest metafile page first, instead of
    /// immediately at the CP that freed them. Default off (the paper's
    /// experiments measure the AA caches, not the reclamation path).
    pub batched_frees: bool,
    /// Metafile pages the delayed-free processor may write per CP when
    /// `batched_frees` is on.
    pub free_pages_per_cp: usize,
    /// Scrub units (bitmap summary pages / TopAA cache structures) the
    /// runtime scrubber verifies per CP. `0` disables online scrub —
    /// corruption is then only caught at remount, as before. See
    /// `docs/recovery.md` ("Runtime scrub"). Repair tickets (a degraded
    /// mount's included) are processed every CP either way.
    pub scrub_pages_per_cp: u64,
    /// CPU cost model for the per-op overhead accounting (§4.1.2).
    pub cpu: CpuModel,
    /// Vestigial: always `1`, and [`Aggregate::new`](crate::Aggregate::new)
    /// rejects anything else. The sharded planner that read it is gone;
    /// the field stays only because the frozen `benchmark/src/main.rs`
    /// prints it, and goes with that line in the next
    /// benchmark-definition PR.
    pub write_shards: usize,
    /// Flight-recorder journal capacity in events; `0` (the default)
    /// disables tracing entirely. When set, the aggregate journals CP
    /// phase spans, allocator events, scrub/health transitions, and
    /// mount phases into a bounded journal (overflow drops events and
    /// bumps `trace.dropped_events`), and samples a per-CP time series of
    /// registry deltas and each CP's stage wall times. See `docs/observability.md`
    /// ("Flight recorder").
    pub trace_events: usize,
}

impl AggregateConfig {
    /// A single-RAID-group config with the given spec and defaults
    /// matching the paper's standard setup.
    pub fn single_group(spec: RaidGroupSpec) -> AggregateConfig {
        AggregateConfig {
            raid_groups: vec![spec],
            checksum: ChecksumStyle::Sector520,
            aa_policy_override: None,
            raid_aware_cache: true,
            rg_backoff_threshold: 0.0,
            trim_on_free: false,
            ssd_tier_bias: 1.0,
            batched_frees: false,
            free_pages_per_cp: 4,
            scrub_pages_per_cp: 0,
            cpu: CpuModel::default(),
            write_shards: 1,
            trace_events: 0,
        }
    }

    /// Total PVBNs across all groups.
    pub fn total_data_blocks(&self) -> u64 {
        self.raid_groups.iter().map(|g| g.data_blocks()).sum()
    }
}

/// One FlexVol volume.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlexVolConfig {
    /// Virtual VBN space size in blocks. Thin provisioning lets the sum
    /// across volumes exceed the aggregate (§3.3.2).
    pub size_blocks: u64,
    /// Whether the HBPS-based AA cache guides virtual allocation (the
    /// Fig 6 "FlexVol AA cache" arm). Disabled means random AA picks.
    pub aa_cache: bool,
    /// Virtual AA size in blocks. `None` uses the paper's 32 Ki default
    /// (§3.2.1); scaled-down experiments may shrink it to preserve the
    /// AA-count structure of production volumes. Must be a multiple of
    /// the HBPS bin count (32).
    pub aa_blocks: Option<u64>,
}

impl Default for FlexVolConfig {
    fn default() -> FlexVolConfig {
        FlexVolConfig {
            size_blocks: wafl_types::RAID_AGNOSTIC_AA_BLOCKS,
            aa_cache: true,
            aa_blocks: None,
        }
    }
}

/// The CPU-time model behind the §4.1.2 "computational overhead per
/// operation" measurements. All values in microseconds.
///
/// The absolute numbers are calibrated to land in the paper's regime
/// (~300 µs of WAFL code path per client write op); what the experiments
/// compare is how the *metafile-page* and *cache-maintenance* terms move
/// when caches are enabled or disabled.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Fixed WAFL code-path cost per client operation.
    pub base_us_per_op: f64,
    /// Cost per candidate block the allocator examines while collecting
    /// free VBNs (buffer walk, context checks). Fuller AAs examine ~1/f
    /// candidates per allocation — this term carries the §4.1.2 CPU
    /// difference between cache-guided and random AA selection.
    pub us_per_alloc_candidate: f64,
    /// Cost of updating one dirtied bitmap-metafile page in a CP (read,
    /// modify, checksum, write-back bookkeeping).
    pub us_per_metafile_page: f64,
    /// Per-block allocation bookkeeping cost.
    pub us_per_block: f64,
    /// Cost of one AA-cache operation (heap sift / HBPS bin move). The
    /// paper measures ~0.002 % of CPU here — small but nonzero.
    pub us_per_cache_op: f64,
    /// Cost of scanning one bitmap page in a replenish/rebuild walk.
    pub us_per_scan_page: f64,
    /// Cost of reading one metafile block from storage at mount time
    /// (dominates the Fig 10 first-CP comparison).
    pub us_per_metafile_read: f64,
}

impl Default for CpuModel {
    fn default() -> CpuModel {
        CpuModel {
            base_us_per_op: 200.0,
            us_per_alloc_candidate: 35.0,
            us_per_metafile_page: 30.0,
            us_per_block: 0.15,
            us_per_cache_op: 0.2,
            us_per_scan_page: 4.0,
            us_per_metafile_read: 150.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_groups() {
        let spec = RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 1000,
            profile: MediaProfile::hdd(),
        };
        assert_eq!(spec.data_blocks(), 4000);
        let mut cfg = AggregateConfig::single_group(spec.clone());
        cfg.raid_groups.push(spec);
        assert_eq!(cfg.total_data_blocks(), 8000);
    }
}
