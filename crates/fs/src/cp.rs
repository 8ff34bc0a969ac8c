//! The consistency point: flush everything collected since the last CP as
//! one transaction (§2.1), allocating virtual + physical VBNs from the
//! emptiest AAs and batching all score updates at the boundary (§3.3).

use crate::aggregate::{Aggregate, DeviceMedia, DirtyBlock, GroupCache};
use crate::allocator::{allocate_vvbns, plan_raid_group, AllocOutcome, AllocatorMode};
use serde::{Deserialize, Serialize};
use wafl_faults::{CrashSite, FaultSession};
use wafl_obs::trace::TraceData;
use wafl_raid::analyze_cp_write_runs;
use wafl_types::{ChecksumStyle, Vbn, WaflError, WaflResult, AZCS_DATA_BLOCKS, AZCS_REGION_BLOCKS};

/// How a faulted consistency point ended.
// `Completed` carries the full per-CP stats inline: CPs run at hertz, not
// megahertz, so the variant-size asymmetry costs nothing measurable and a
// `Box` would only push the stats behind a pointer for every reader.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CpOutcome {
    /// The CP ran to completion.
    Completed(CpStats),
    /// A crash cut the CP short at the given site. Persistent state holds
    /// whatever tear the site implies; all volatile state (queued writes,
    /// unapplied delayed frees, CP score batches) is gone. The caller
    /// remounts via [`crate::mount::mount_auto`] and runs
    /// [`crate::iron::check`] / [`crate::iron::repair`].
    Crashed(CrashSite),
}

/// Per-RAID-group results of one CP.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RgCpStats {
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
    /// Media time for this group (max across its devices — they operate
    /// in parallel), µs.
    pub media_us: f64,
}

/// Measured wall-clock time of one CP's pipeline phases, µs.
///
/// Every completed CP records these from a monotonic clock around each
/// pipeline section — the only real-time measurement below the harness
/// layer (the simulated cost model behind [`CpStats::cpu_us`] never
/// reads a clock). About ten `Instant` reads per multi-millisecond CP,
/// so the overlay itself is measurement noise. `simulate --check`
/// compares these against the cost model's per-phase terms and reports
/// the ratio drift (see [`WallClockOverlay`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpWallClock {
    /// Virtual (per-volume) allocation planning.
    pub plan_virtual_us: f64,
    /// Physical (per-group) allocation, including quota computation and
    /// any shortfall rounds.
    pub plan_physical_us: f64,
    /// The metafile dirty-page accounting (step 6). Allocations are
    /// claimed in the bitmaps where the plans find them, so there is no
    /// apply step to time; the field keeps its name for its readers.
    pub apply_us: f64,
    /// Logical→virtual→physical binding and queued deletions.
    pub bind_us: f64,
    /// Delayed-free flush: virtual frees, then physical frees.
    pub frees_us: f64,
    /// Per-group media costing.
    pub costing_us: f64,
    /// CP-boundary cache rebalance (batch application + replenish).
    pub rebalance_us: f64,
    /// The whole CP pipeline, entry to completion.
    pub total_us: f64,
}

impl CpWallClock {
    /// Merge another CP's wall clock into an accumulator.
    pub fn accumulate(&mut self, other: &CpWallClock) {
        self.plan_virtual_us += other.plan_virtual_us;
        self.plan_physical_us += other.plan_physical_us;
        self.apply_us += other.apply_us;
        self.bind_us += other.bind_us;
        self.frees_us += other.frees_us;
        self.costing_us += other.costing_us;
        self.rebalance_us += other.rebalance_us;
        self.total_us += other.total_us;
    }

    /// Sum of the individually timed phases (excludes pipeline glue that
    /// only `total_us` covers).
    pub fn phase_sum_us(&self) -> f64 {
        self.plan_virtual_us
            + self.plan_physical_us
            + self.apply_us
            + self.bind_us
            + self.frees_us
            + self.costing_us
            + self.rebalance_us
    }
}

/// Advance a lap timer: elapsed µs since the last mark, then re-mark.
fn lap_us(mark: &mut std::time::Instant) -> f64 {
    let us = mark.elapsed().as_secs_f64() * 1e6;
    *mark = std::time::Instant::now();
    us
}

/// `dst.append(src)`, except that an empty `dst` takes `src`'s buffer
/// instead of copying it into a new one. With one group and no shortfall
/// round, that spares a CP the copy of every block and run it planned.
fn append_or_take<T>(dst: &mut Vec<T>, src: &mut Vec<T>) {
    if dst.is_empty() {
        std::mem::swap(dst, src);
    } else {
        dst.append(src);
    }
}

/// One phase's wall-vs-model comparison inside a [`WallClockOverlay`].
#[derive(Clone, Debug, Serialize)]
pub struct PhaseDrift {
    /// Phase label (see [`WallClockOverlay::from_window`] for the
    /// wall↔model phase mapping).
    pub phase: String,
    /// This phase's fraction of the measured wall-clock phase time.
    pub wall_fraction: f64,
    /// This phase's fraction of the modelled CPU time.
    pub model_fraction: f64,
    /// `wall_fraction - model_fraction`.
    pub drift: f64,
    /// Measured wall time in this phase over the window, µs.
    pub wall_us: f64,
    /// Modelled cost mapped to this phase over the window, µs.
    pub model_us: f64,
    /// `wall_us - model_us` — the absolute drift. This is the signal to
    /// read for phases the model prices at zero (`costing` always; any
    /// phase over a window of empty CPs), where a wall/model quotient
    /// would be infinite or NaN.
    pub drift_us: f64,
    /// `wall_us / model_us`, or `None` when the modelled cost is zero —
    /// never NaN/inf, so the JSON health report stays finite.
    pub ratio: Option<f64>,
}

/// Wall-clock overlay over a measurement window: how the CP pipeline's
/// *measured* phase ratios compare with the simulated cost model's — the
/// ROADMAP item "validate the model's phase ratios against real
/// execution time". Built from an accumulated [`CpStats`] window; the
/// model terms are re-derived from the window's counters and the
/// [`CpuModel`](crate::CpuModel) exactly as the CP engine computed them.
#[derive(Clone, Debug, Serialize)]
pub struct WallClockOverlay {
    /// Mean measured pipeline time per CP, µs.
    pub wall_us_per_cp: f64,
    /// Mean modelled CPU time per CP, µs.
    pub model_us_per_cp: f64,
    /// `wall_us_per_cp / model_us_per_cp` — how much real time a unit of
    /// modelled time took on this host (hardware-dependent; the *ratios*
    /// below are the portable signal).
    pub total_ratio: f64,
    /// Per-phase fractions and their drift.
    pub phases: Vec<PhaseDrift>,
    /// Largest absolute per-phase drift.
    pub max_abs_drift: f64,
}

impl WallClockOverlay {
    /// Build the overlay from an accumulated window of `cps` consistency
    /// points. Phase mapping (wall ↔ model):
    ///
    /// | label | wall phases | model terms |
    /// |---|---|---|
    /// | `allocation` | plan_virtual + plan_physical | alloc-candidate scan |
    /// | `metafile_apply` | apply + frees | metafile page updates |
    /// | `binding` | bind | per-op base + per-block |
    /// | `cache_maintenance` | rebalance | cache ops + replenish scans |
    /// | `costing` | costing | — (the model itself; no model term) |
    ///
    /// Returns `None` for an empty window (no completed CPs).
    pub fn from_window(
        stats: &CpStats,
        cps: u64,
        cpu: &crate::config::CpuModel,
    ) -> Option<WallClockOverlay> {
        if cps == 0 {
            return None;
        }
        let w = &stats.wall;
        let wall_sum = w.phase_sum_us();
        let model_client = stats.ops as f64 * cpu.base_us_per_op;
        let model_metafile = stats.metafile_pages as f64 * cpu.us_per_metafile_page;
        let model_blocks = stats.blocks_written as f64 * cpu.us_per_block;
        let model_alloc = stats.blocks_examined as f64 * cpu.us_per_alloc_candidate;
        let model_cache = stats.cache_maintenance_us;
        let model_replenish = stats.replenish_pages as f64 * cpu.us_per_scan_page;
        let model_sum = stats.cpu_us;
        if wall_sum <= 0.0 {
            return None;
        }
        let pairs = [
            (
                "allocation",
                w.plan_virtual_us + w.plan_physical_us,
                model_alloc,
            ),
            ("metafile_apply", w.apply_us + w.frees_us, model_metafile),
            ("binding", w.bind_us, model_client + model_blocks),
            (
                "cache_maintenance",
                w.rebalance_us,
                model_cache + model_replenish,
            ),
            ("costing", w.costing_us, 0.0),
        ];
        let phases: Vec<PhaseDrift> = pairs
            .iter()
            .map(|&(name, wall, model)| {
                let wall_fraction = wall / wall_sum;
                // A window of empty CPs models zero cost everywhere;
                // 0/0 fractions must not poison the report with NaN.
                let model_fraction = if model_sum > 0.0 {
                    model / model_sum
                } else {
                    0.0
                };
                PhaseDrift {
                    phase: name.to_string(),
                    wall_fraction,
                    model_fraction,
                    drift: wall_fraction - model_fraction,
                    wall_us: wall,
                    model_us: model,
                    drift_us: wall - model,
                    ratio: (model > 0.0).then(|| wall / model),
                }
            })
            .collect();
        let max_abs_drift = phases.iter().map(|p| p.drift.abs()).fold(0.0, f64::max);
        Some(WallClockOverlay {
            wall_us_per_cp: w.total_us / cps as f64,
            model_us_per_cp: model_sum / cps as f64,
            total_ratio: if model_sum > 0.0 {
                w.total_us / model_sum
            } else {
                0.0
            },
            phases,
            max_abs_drift,
        })
    }
}

/// Results of one consistency point.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpStats {
    /// CP sequence number.
    pub cp_index: u64,
    /// Client write operations flushed.
    pub ops: u64,
    /// Data blocks written (= ops for 4 KiB ops).
    pub blocks_written: u64,
    /// Distinct bitmap-metafile pages dirtied (aggregate + volumes) —
    /// the §2.5 currency.
    pub metafile_pages: u64,
    /// Per-group breakdown.
    pub per_rg: Vec<RgCpStats>,
    /// Media time of the CP: max across groups (all devices work in
    /// parallel), µs.
    pub media_us: f64,
    /// Sum of device time across all devices, µs (for utilisation math).
    pub media_us_total: f64,
    /// Modelled CPU time consumed by this CP, µs.
    pub cpu_us: f64,
    /// CPU time spent purely on AA-cache maintenance, µs (the §4.1.2
    /// "0.002 % of CPU" measurement).
    pub cache_maintenance_us: f64,
    /// Candidate block positions examined by the allocator (the §4.1.2
    /// CPU effect: fuller AAs force ~1/f candidates per allocation).
    pub blocks_examined: u64,
    /// AAs picked for physical allocation: count and summed free fraction.
    pub agg_picks: u64,
    /// Sum over picked physical AAs of (score / AA blocks).
    pub agg_pick_free_sum: f64,
    /// AAs picked for virtual allocation: count and summed free fraction.
    pub vol_picks: u64,
    /// Sum over picked virtual AAs of (score / AA blocks).
    pub vol_pick_free_sum: f64,
    /// Bitmap pages scanned by replenish walks during this CP.
    pub replenish_pages: u64,
    /// Delayed frees applied by the background processor this CP (only
    /// with `batched_frees`).
    pub delayed_frees_applied: u64,
    /// Metafile pages the delayed-free processor wrote this CP.
    pub delayed_free_pages: u64,
    /// Volume drains that resumed from a per-AA cursor instead of
    /// re-walking the AA's allocated prefix.
    pub cursor_hits: u64,
    /// Volume drains that started from the AA's first VBN.
    pub cursor_misses: u64,
    /// Measured wall-clock phase times of the CP pipeline (the overlay;
    /// all other durations in this struct are simulated).
    pub wall: CpWallClock,
}

impl CpStats {
    /// Mean free fraction of the physical AAs picked this CP.
    pub fn agg_pick_free_mean(&self) -> f64 {
        if self.agg_picks == 0 {
            0.0
        } else {
            self.agg_pick_free_sum / self.agg_picks as f64
        }
    }

    /// Mean free fraction of the virtual AAs picked this CP.
    pub fn vol_pick_free_mean(&self) -> f64 {
        if self.vol_picks == 0 {
            0.0
        } else {
            self.vol_pick_free_sum / self.vol_picks as f64
        }
    }

    /// Fraction of written stripes that were full.
    pub fn full_stripe_fraction(&self) -> f64 {
        let (f, p): (u64, u64) = self.per_rg.iter().fold((0, 0), |(f, p), rg| {
            (f + rg.full_stripes, p + rg.partial_stripes)
        });
        if f + p == 0 {
            0.0
        } else {
            f as f64 / (f + p) as f64
        }
    }

    /// Merge a CP into an accumulator (used by measurement windows).
    pub fn accumulate(&mut self, other: &CpStats) {
        self.ops += other.ops;
        self.blocks_written += other.blocks_written;
        self.blocks_examined += other.blocks_examined;
        self.metafile_pages += other.metafile_pages;
        self.media_us += other.media_us;
        self.media_us_total += other.media_us_total;
        self.cpu_us += other.cpu_us;
        self.cache_maintenance_us += other.cache_maintenance_us;
        self.agg_picks += other.agg_picks;
        self.agg_pick_free_sum += other.agg_pick_free_sum;
        self.vol_picks += other.vol_picks;
        self.vol_pick_free_sum += other.vol_pick_free_sum;
        self.replenish_pages += other.replenish_pages;
        self.delayed_frees_applied += other.delayed_frees_applied;
        self.delayed_free_pages += other.delayed_free_pages;
        self.cursor_hits += other.cursor_hits;
        self.cursor_misses += other.cursor_misses;
        self.wall.accumulate(&other.wall);
        if self.per_rg.len() < other.per_rg.len() {
            self.per_rg.resize(other.per_rg.len(), RgCpStats::default());
        }
        for (acc, rg) in self.per_rg.iter_mut().zip(&other.per_rg) {
            acc.blocks += rg.blocks;
            acc.tetrises += rg.tetrises;
            acc.full_stripes += rg.full_stripes;
            acc.partial_stripes += rg.partial_stripes;
            acc.parity_reads += rg.parity_reads;
            acc.parity_writes += rg.parity_writes;
            acc.media_us += rg.media_us;
            if acc.per_device_blocks.len() < rg.per_device_blocks.len() {
                acc.per_device_blocks.resize(rg.per_device_blocks.len(), 0);
                acc.per_device_chains.resize(rg.per_device_chains.len(), 0);
            }
            for (a, b) in acc.per_device_blocks.iter_mut().zip(&rg.per_device_blocks) {
                *a += b;
            }
            for (a, b) in acc.per_device_chains.iter_mut().zip(&rg.per_device_chains) {
                *a += b;
            }
        }
    }
}

impl Aggregate {
    /// Run one consistency point over every operation collected since the
    /// last. Returns the CP's cost and layout statistics.
    pub fn run_cp(&mut self) -> WaflResult<CpStats> {
        match self.run_cp_inner(None, None)? {
            CpOutcome::Completed(stats) => Ok(stats),
            CpOutcome::Crashed(_) => unreachable!("no crash site was scheduled"),
        }
    }

    /// Run a consistency point that a fault plan may cut short. With
    /// `crash: None` this is exactly [`Aggregate::run_cp`]. With a
    /// [`CrashSite`], the CP performs its persistent mutations up to that
    /// site, discards all volatile state (as a power loss would), and
    /// returns [`CpOutcome::Crashed`] — the torn state is then the
    /// recovery stack's problem, not an `Err`.
    pub fn run_cp_with_faults(&mut self, crash: Option<CrashSite>) -> WaflResult<CpOutcome> {
        self.run_cp_inner(crash, None)
    }

    /// [`Aggregate::run_cp_with_faults`] plus a live [`FaultSession`]: due
    /// runtime scribbles fire at the CP's start (in-memory corruption of
    /// summary counters / cached scores while the aggregate serves
    /// traffic), and the runtime scrubber's verify reads go through the
    /// session's scrub read-error schedule.
    pub fn run_cp_with_session(
        &mut self,
        crash: Option<CrashSite>,
        faults: Option<&mut FaultSession<'_>>,
    ) -> WaflResult<CpOutcome> {
        self.run_cp_inner(crash, faults)
    }

    fn run_cp_inner(
        &mut self,
        crash: Option<CrashSite>,
        mut faults: Option<&mut FaultSession<'_>>,
    ) -> WaflResult<CpOutcome> {
        // ---- 0. runtime fault injection + scrub step --------------------
        // Scribbles land first (memory corruption strikes at arbitrary
        // points; the CP boundary is where the simulation quantizes it),
        // then the scrubber gets its budgeted verification pass — before
        // any allocation of this CP trusts the summary counters.
        if let Some(session) = faults.as_deref_mut() {
            crate::scrub::apply_due_runtime_scribbles(self, session);
        }
        if self.scrub.enabled() {
            crate::scrub::run_step(self, faults)?;
        }
        let dirty = std::mem::take(&mut self.dirty);
        // Invalidate every volume's dirty stamps in O(1): stamps from
        // earlier epochs read as clean.
        self.bump_epoch();
        let n = dirty.len();
        let mut stats = CpStats {
            cp_index: self.cp_count,
            ops: n as u64,
            blocks_written: n as u64,
            ..CpStats::default()
        };
        if n == 0
            && self.pending_deletes.is_empty()
            && self.free_log.pending() == 0
            && self.delayed_pvbn_frees.is_empty()
            && self.vols.iter().all(|v| v.delayed_vvbn_frees.is_empty())
        {
            if let Some(site) = crash {
                // Nothing to tear: the process still dies at the site.
                self.lose_volatile_state();
                return Ok(CpOutcome::Crashed(site));
            }
            self.cp_count += 1;
            return Ok(CpOutcome::Completed(stats));
        }

        // ---- 1. group dirtied blocks by volume ------------------------
        let mut per_vol: Vec<Vec<u64>> = vec![Vec::new(); self.vols.len()];
        for DirtyBlock { vol, logical } in &dirty {
            per_vol[vol.index()].push(*logical);
        }

        // ---- 2. virtual allocation, volume by volume -------------------
        // Flight recorder epoch: the engine-track phase spans are
        // synthesized at step 10 from the wall-clock laps, anchored here.
        let trace_t0 = self.obs.trace_now_us();
        let cp_t0 = std::time::Instant::now();
        let mut mark = cp_t0;
        let mut wall = CpWallClock::default();
        let cp_seed = self.cp_count.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut vol_outcomes: Vec<AllocOutcome> = Vec::with_capacity(self.vols.len());
        for (i, (vol, logicals)) in self.vols.iter_mut().zip(&per_vol).enumerate() {
            if logicals.is_empty() {
                vol_outcomes.push(AllocOutcome::default());
                continue;
            }
            let mode = if vol.config().aa_cache {
                AllocatorMode::CacheGuided
            } else {
                AllocatorMode::RandomAa
            };
            vol_outcomes.push(allocate_vvbns(
                vol,
                logicals.len(),
                cp_seed ^ i as u64,
                mode,
            )?);
        }
        // Observability accumulators (exported after the CP commits).
        let mut pick_errors: Vec<(u32, u32)> = Vec::new();
        let mut sweep_picks = 0u64;
        let mut batch_sizes: Vec<u64> = Vec::new();
        let mut heap_batch_sizes: Vec<u64> = Vec::new();
        let mut cache_ops = 0u64;
        // Per-volume cursor traffic, kept aside for the vol=<id> labelled
        // export in step 10 (the outcomes themselves are consumed by the
        // binding step below).
        let per_vol_cursor: Vec<(u64, u64)> = vol_outcomes
            .iter()
            .map(|out| (out.cursor_hits, out.cursor_misses))
            .collect();
        for out in &vol_outcomes {
            stats.vol_picks += out.picked.len() as u64;
            stats.replenish_pages += out.replenish_pages;
            stats.blocks_examined += out.blocks_examined;
            stats.cursor_hits += out.cursor_hits;
            stats.cursor_misses += out.cursor_misses;
            pick_errors.extend_from_slice(&out.pick_errors);
            sweep_picks += out.sweep_picks;
        }
        for (vol, out) in self.vols.iter().zip(&vol_outcomes) {
            for &(aa, score) in &out.picked {
                let max = vol.topology.aa_blocks(aa) as f64;
                stats.vol_pick_free_sum += score.get() as f64 / max.max(1.0);
            }
        }

        wall.plan_virtual_us += lap_us(&mut mark);

        // ---- 3. physical allocation: quotas, then a plan per group ----
        let mode = if self.cfg.raid_aware_cache {
            AllocatorMode::CacheGuided
        } else {
            AllocatorMode::RandomAa
        };
        let audit_sample = self.cfg.pick_audit_sample;
        // Round 0 offers each group its weighted share; whatever the
        // groups could not find is the shortfall, which every later round
        // offers whole to each group in turn.
        let mut quotas = self.rg_quotas(n);
        if let Some(CrashSite::AfterBlockWrites(limit)) = crash {
            // Power loss after `limit` physical block writes hit stable
            // storage: cap the quotas cumulatively. A capped claim is a
            // prefix of the uncapped one, so exactly the first `limit`
            // VBNs of this CP have their bits set.
            let mut left = usize::try_from(limit).unwrap_or(usize::MAX);
            for quota in &mut quotas {
                *quota = left.min(*quota);
                left -= *quota;
            }
        }
        let mut salt = 0xABCD_u64;
        let mut shortfall = n;
        // Set once a round has offered every group the whole shortfall:
        // only such a round can show that the aggregate is out of space
        // (round 0's share is 0 for a backed-off group that has room).
        let mut offered_all = false;
        // Every plan of this CP with its group's index, in the order they
        // were made. Their blocks, counters and drained AAs are folded in
        // once, after the rounds.
        let mut plans: Vec<(usize, AllocOutcome)> = Vec::with_capacity(self.groups.len());
        loop {
            let mut progressed = false;
            for (i, (g, &quota)) in self.groups.iter_mut().zip(&quotas).enumerate() {
                if offered_all && shortfall == 0 {
                    break;
                }
                let plan = plan_raid_group(
                    g,
                    &mut self.bitmap,
                    quota.min(shortfall),
                    mode,
                    cp_seed ^ (salt + i as u64),
                    audit_sample,
                )?;
                shortfall -= plan.vbns.len();
                progressed |= !plan.vbns.is_empty();
                // A plan that found no block is kept too: a full
                // heap-cached group returns the score-0 AA `take_best`
                // popped in `drained`, and only step 8 puts it back.
                plans.push((i, plan));
            }
            if let Some(site @ CrashSite::AfterBlockWrites(_)) = crash {
                // The claimed bits are on stable storage, but no logical
                // binding was ever recorded — allocated-but-unreferenced
                // leaks in both VBN spaces (the vvbn bits were set in
                // step 2).
                self.lose_volatile_state();
                return Ok(CpOutcome::Crashed(site));
            }
            if shortfall == 0 {
                break;
            }
            if offered_all && !progressed {
                if self.free_log.pending() == 0 {
                    return Err(WaflError::SpaceExhausted);
                }
                // Space pressure: pull the logged frees forward (the
                // [18]-style reclamation path racing the allocator).
                let Aggregate {
                    bitmap,
                    groups,
                    free_log,
                    ..
                } = &mut *self;
                let dstats = free_log.force_drain(bitmap, |pvbn, _| {
                    let g = groups
                        .iter_mut()
                        .find(|g| g.geometry.contains(pvbn))
                        .expect("freed pvbn belongs to a group");
                    let aa = g.topology.aa_of_vbn(pvbn)?;
                    g.batch.record_freed(aa, 1);
                    Ok(())
                })?;
                stats.delayed_frees_applied += dstats.frees_applied;
                stats.delayed_free_pages += dstats.pages_processed;
                // A planner that scores AAs from the bitmap (HBPS
                // replenish, random-AA mode, the quarantine sweep) finds
                // the freed blocks there; a heap ranks by its own score
                // array, so it gets the batch now — it holds exactly what
                // the bitmap holds and the heap does not.
                for g in groups.iter_mut() {
                    if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
                        cache_ops += g.batch.touched_aas() as u64;
                        cache.apply_batch(&mut g.batch);
                    }
                }
            }
            quotas.fill(usize::MAX);
            salt = 0xF00D;
            offered_all = true;
        }

        // The plans' blocks in one list, and (media costing, step 7, works
        // per run) each group's runs in another.
        let mut pvbns: Vec<Vbn> = Vec::new();
        let mut per_rg_runs: Vec<Vec<(Vbn, u64)>> = vec![Vec::new(); self.groups.len()];
        for (i, plan) in &mut plans {
            append_or_take(&mut pvbns, &mut plan.vbns);
            append_or_take(&mut per_rg_runs[*i], &mut plan.runs);
            stats.agg_picks += plan.picked.len() as u64;
            stats.blocks_examined += plan.blocks_examined;
            stats.replenish_pages += plan.replenish_pages;
            pick_errors.extend_from_slice(&plan.pick_errors);
            sweep_picks += plan.sweep_picks;
            for &(aa, score) in &plan.picked {
                let max = self.groups[*i].topology.aa_blocks(aa) as f64;
                stats.agg_pick_free_sum += score.get() as f64 / max.max(1.0);
            }
        }
        wall.plan_physical_us += lap_us(&mut mark);

        // ---- 4. bind logical -> virtual -> physical; collect frees ----
        // Each volume's pvbns occupy one contiguous chunk (allocation
        // filled `pvbns` in `per_vol` order).
        let mut off = 0usize;
        for ((vol, logicals), outcome) in self.vols.iter_mut().zip(&per_vol).zip(&vol_outcomes) {
            debug_assert_eq!(outcome.vbns.len(), logicals.len());
            let chunk = &pvbns[off..off + logicals.len()];
            off += logicals.len();
            self.delayed_pvbn_frees
                .extend(vol.remap_batch(logicals, &outcome.vbns, chunk));
        }

        // ---- 4b. deletions queued since the last CP --------------------
        for DirtyBlock { vol, logical } in std::mem::take(&mut self.pending_deletes) {
            let v = &mut self.vols[vol.index()];
            if let Some((old_v, old_p)) = v.unmap(logical) {
                v.delayed_vvbn_frees.push(old_v);
                self.delayed_pvbn_frees.push(old_p);
            }
        }

        if let Some(site @ CrashSite::AfterBind) = crash {
            // Power loss after the new mappings committed but before any
            // delayed free applied: the overwritten blocks' old versions
            // stay allocated in both VBN spaces and nothing references
            // them (their vvbns are gone from the volume maps) — leaks.
            self.lose_volatile_state();
            return Ok(CpOutcome::Crashed(site));
        }

        wall.bind_us += lap_us(&mut mark);

        // ---- 5. delayed frees at the CP boundary (§3.3) ---------------
        for vol in &mut self.vols {
            vol.flush_delayed_frees()?;
        }
        if let Some(site @ CrashSite::MidFreeLogApply(k)) = crash {
            // The crash interrupts delayed-free application: `k` frees
            // reach the bitmap. The rest stay pending — in the persistent
            // log when batched (replayed idempotently after remount, the
            // `k` applied ones skipped), lost outright (leaked) when not.
            let mut frees = std::mem::take(&mut self.delayed_pvbn_frees);
            if self.cfg.batched_frees {
                for pvbn in frees {
                    self.free_log.log_free(pvbn)?;
                }
                frees = self.free_log.pending_vbns();
            }
            for &pvbn in frees.iter().take(k as usize) {
                self.bitmap.free(pvbn)?;
            }
            self.lose_volatile_state();
            return Ok(CpOutcome::Crashed(site));
        }
        let trim = self.cfg.trim_on_free;
        if self.cfg.batched_frees {
            // §3.3.2's second HBPS use: log the frees; the background
            // processor applies them below, fullest page first.
            for pvbn in std::mem::take(&mut self.delayed_pvbn_frees) {
                self.free_log.log_free(pvbn)?;
            }
            let budget = self.cfg.free_pages_per_cp;
            let Aggregate {
                bitmap,
                groups,
                free_log,
                ..
            } = self;
            let dstats = free_log.process(bitmap, budget, |pvbn, _| {
                let g = groups
                    .iter_mut()
                    .find(|g| g.geometry.contains(pvbn))
                    .expect("freed pvbn belongs to a group");
                let aa = g.topology.aa_of_vbn(pvbn)?;
                g.batch.record_freed(aa, 1);
                if trim {
                    let loc = g.geometry.vbn_to_loc(pvbn)?;
                    if let DeviceMedia::Ssd(ftl) = &mut g.media[loc.device.index()] {
                        ftl.trim(loc.dbn.get() as u32)?;
                    }
                }
                Ok(())
            })?;
            stats.delayed_frees_applied += dstats.frees_applied;
            stats.delayed_free_pages += dstats.pages_processed;
        } else {
            // Sort, walk the batch once for trim and per-AA
            // score accounting (the groups go by monotonically — they
            // are ordered by base VBN), then clear every bit with the
            // word-masked batch free instead of one bit flip per block.
            // The score deltas commute, so the reordering is
            // state-neutral.
            let mut frees = std::mem::take(&mut self.delayed_pvbn_frees);
            if !frees.is_empty() {
                wafl_bitmap::sort_vbns(&mut frees);
                let mut gi = 0usize;
                // Sorted input means whole AA spans go by between
                // topology lookups: one aa_span_of_vbn call per span
                // crossed, not one aa_of_vbn per block — and one
                // record_freed per span rather than per block, so the
                // score batch sees a handful of AA entries instead of
                // thousands of single-block updates.
                let mut span_aa = wafl_types::AaId(0);
                let mut span_end = Vbn(0);
                let mut span_gi = 0usize;
                let mut span_freed: u32 = 0;
                for &pvbn in &frees {
                    while !self.groups[gi].geometry.contains(pvbn) {
                        gi += 1;
                    }
                    if pvbn >= span_end {
                        if span_freed > 0 {
                            self.groups[span_gi].batch.record_freed(span_aa, span_freed);
                        }
                        (span_aa, span_end) = self.groups[gi].topology.aa_span_of_vbn(pvbn)?;
                        span_gi = gi;
                        span_freed = 0;
                    }
                    span_freed += 1;
                    if trim {
                        let g = &mut self.groups[gi];
                        let loc = g.geometry.vbn_to_loc(pvbn)?;
                        if let DeviceMedia::Ssd(ftl) = &mut g.media[loc.device.index()] {
                            ftl.trim(loc.dbn.get() as u32)?;
                        }
                    }
                }
                if span_freed > 0 {
                    self.groups[span_gi].batch.record_freed(span_aa, span_freed);
                }
                self.bitmap.free_sorted_blocks(&frees)?;
            }
        }

        wall.frees_us += lap_us(&mut mark);

        // ---- 6. metafile I/O accounting (§2.5) -------------------------
        let mut pages = self.bitmap.take_dirty_stats().pages_dirtied;
        for vol in &mut self.vols {
            pages += vol.bitmap.take_dirty_stats().pages_dirtied;
        }
        stats.metafile_pages = pages;
        wall.apply_us += lap_us(&mut mark);

        // ---- 7. media costing, group by group --------------------------
        // Run-interval analysis — same numbers as the per-block analysis
        // `wafl-oracle` preserves (equivalence is pinned by the parity
        // suites), a fraction of the work.
        let checksum = self.cfg.checksum;
        for (g, runs) in self.groups.iter_mut().zip(&per_rg_runs) {
            let rg = cost_raid_group_runs(g, runs, checksum)?;
            stats.media_us = stats.media_us.max(rg.media_us);
            stats.media_us_total += rg.media_us;
            stats.per_rg.push(rg);
        }
        wall.costing_us += lap_us(&mut mark);

        // ---- 8. CP-boundary cache rebalance (§3.3) ----------------------
        let bitmap_ref = &self.bitmap;
        for g in &mut self.groups {
            match g.cache.as_mut() {
                Some(GroupCache::Heap(cache)) => {
                    let touched = g.batch.touched_aas() as u64;
                    cache_ops += touched;
                    if touched > 0 {
                        batch_sizes.push(touched);
                        heap_batch_sizes.push(touched);
                    }
                    cache.apply_batch(&mut g.batch);
                    // Drained AAs are reinserted below, post-batch.
                }
                Some(GroupCache::Hbps(hbps)) => {
                    // Like the volume path: derive old scores from the
                    // post-CP bitmap and the batched delta; no per-AA
                    // score array exists (§3.3.2).
                    let touched = g.batch.touched_aas() as u64;
                    cache_ops += touched;
                    if touched > 0 {
                        batch_sizes.push(touched);
                    }
                    for (aa, delta) in g.batch.drain() {
                        let new = g.topology.score_from_bitmap(bitmap_ref, aa);
                        let max = g.topology.aa_blocks(aa) as u32;
                        let old = new.apply(wafl_types::ScoreDelta(-delta.0), max);
                        hbps.on_score_change(aa, old, new)?;
                    }
                }
                None => {
                    let _ = g.batch.drain().count();
                }
            }
        }
        // Re-insert AAs fully drained this CP with their post-batch scores
        // (frees during the same CP may have given them a head start).
        // HBPS-cached ranges: drained AAs re-enter via the batched score
        // change above (the histogram never stopped counting them).
        for (i, plan) in &plans {
            if let Some(GroupCache::Heap(cache)) = self.groups[*i].cache.as_mut() {
                for &aa in &plan.drained {
                    let score = cache.score_of(aa);
                    cache.insert(aa, score)?;
                    cache_ops += 1;
                }
            }
        }
        for vol in &mut self.vols {
            let Some(cache) = vol.cache.as_mut() else {
                let _ = vol.batch.drain().count();
                continue;
            };
            let touched = vol.batch.touched_aas() as u64;
            cache_ops += touched;
            if touched > 0 {
                batch_sizes.push(touched);
            }
            cache.apply_cp_batch(&mut vol.batch, &vol.bitmap)?;
            // §3.3.2's background scan: if takes have drained the list
            // faster than frees re-populate it — or quality degraded —
            // walk the bitmap and rebuild.
            if cache.maybe_replenish(&vol.bitmap, &mut vol.batch)? {
                // The rescan re-derived the AA scores; the drain cursor's
                // claim of "nothing free behind me" is no longer backed by
                // anything.
                vol.drain_cursor = None;
                self.obs.trace(
                    stats.cp_index,
                    TraceData::CursorInvalidated {
                        vol: vol.id.0,
                        reason: "replenish",
                    },
                );
                stats.replenish_pages += vol.bitmap.page_count() as u64;
            }
        }
        wall.rebalance_us += lap_us(&mut mark);

        // ---- 9. CPU model (§4.1.2) --------------------------------------
        // The per-phase terms below come from the simulated cost model
        // only — the measured laps live beside them in `stats.wall` and
        // never feed it; they are summed into `cpu_us` and exported
        // individually to the phase histograms.
        let cpu = self.cfg.cpu;
        let client_us = n as f64 * cpu.base_us_per_op;
        let metafile_us = pages as f64 * cpu.us_per_metafile_page;
        let blocks_us = n as f64 * cpu.us_per_block;
        let alloc_scan_us = stats.blocks_examined as f64 * cpu.us_per_alloc_candidate;
        stats.cache_maintenance_us = cache_ops as f64 * cpu.us_per_cache_op;
        let replenish_us = stats.replenish_pages as f64 * cpu.us_per_scan_page;
        stats.cpu_us = client_us
            + metafile_us
            + blocks_us
            + alloc_scan_us
            + stats.cache_maintenance_us
            + replenish_us;

        wall.total_us = cp_t0.elapsed().as_secs_f64() * 1e6;

        stats.wall = wall;

        self.cp_count += 1;
        stats.cp_index = self.cp_count - 1;
        if let Some(site) = crash {
            // BeforeTopAaPersist / AfterTopAaPersist: the CP itself
            // committed; the difference is whether the caller's TopAA
            // image is one CP stale, which only the caller (holding the
            // persisted image) can model. Either way the process dies
            // here and the in-memory stats die with it — a crashed CP
            // exports no metrics, like a crashed host losing its RAM.
            self.lose_volatile_state();
            return Ok(CpOutcome::Crashed(site));
        }

        // ---- 10. observability export ----------------------------------
        self.obs.cp_completed.inc(1);
        self.obs.aas_claimed.inc(stats.vol_picks + stats.agg_picks);
        self.obs.blocks_examined.inc(stats.blocks_examined);
        self.obs.replenish_pages.inc(stats.replenish_pages);
        self.obs.sweep_fallback_picks.inc(sweep_picks);
        self.obs.cursor_hits.inc(stats.cursor_hits);
        self.obs.cursor_misses.inc(stats.cursor_misses);
        for (err, width) in pick_errors {
            self.obs
                .pick_score_error
                .observe(err as f64 / width.max(1) as f64);
        }
        for &b in &batch_sizes {
            self.obs.cp_batch_size.observe(b as f64);
        }
        for &b in &heap_batch_sizes {
            self.obs.heap_rebalance_batch.observe(b as f64);
        }
        self.obs.cp_phase_client_us.observe(client_us);
        self.obs.cp_phase_metafile_us.observe(metafile_us);
        self.obs.cp_phase_blocks_us.observe(blocks_us);
        self.obs.cp_phase_alloc_scan_us.observe(alloc_scan_us);
        self.obs
            .cp_phase_cache_us
            .observe(stats.cache_maintenance_us);
        self.obs.cp_phase_replenish_us.observe(replenish_us);
        self.obs.cp_phase_media_us.observe(stats.media_us);
        self.obs.cp_wall_total_us.observe(wall.total_us);
        self.obs
            .cp_wall_plan_virtual_us
            .observe(wall.plan_virtual_us);
        self.obs
            .cp_wall_plan_physical_us
            .observe(wall.plan_physical_us);
        self.obs.cp_wall_apply_us.observe(wall.apply_us);
        self.obs.cp_wall_bind_us.observe(wall.bind_us);
        self.obs.cp_wall_frees_us.observe(wall.frees_us);
        self.obs.cp_wall_costing_us.observe(wall.costing_us);
        self.obs.cp_wall_rebalance_us.observe(wall.rebalance_us);
        // Flight recorder: synthesize the CP-engine track from the wall
        // laps. Spans are journaled whole (start + duration), so the
        // exported begin/end pairs stay balanced even when the ring
        // drops events. Phases are laid out sequentially from the CP's
        // anchor — the same order the pipeline accumulates them — under
        // one enclosing `cp` span; each carries the cost-model term the
        // drift overlay maps to it.
        if let Some(t0) = trace_t0 {
            let cp = stats.cp_index;
            self.obs.trace_at(
                t0,
                cp,
                TraceData::Span {
                    name: "cp",
                    dur_us: wall.total_us,
                    model_us: stats.cpu_us,
                },
            );
            let phases = [
                ("cp.plan_virtual", wall.plan_virtual_us, 0.0),
                ("cp.plan_physical", wall.plan_physical_us, alloc_scan_us),
                ("cp.apply", wall.apply_us, metafile_us),
                ("cp.bind", wall.bind_us, client_us + blocks_us),
                ("cp.frees", wall.frees_us, 0.0),
                ("cp.costing", wall.costing_us, 0.0),
                (
                    "cp.rebalance",
                    wall.rebalance_us,
                    stats.cache_maintenance_us + replenish_us,
                ),
            ];
            let mut ts = t0;
            for (name, dur_us, model_us) in phases {
                self.obs.trace_at(
                    ts,
                    cp,
                    TraceData::Span {
                        name,
                        dur_us,
                        model_us,
                    },
                );
                ts += dur_us;
            }
            if sweep_picks > 0 {
                self.obs
                    .trace_at(t0, cp, TraceData::SweepFallback { picks: sweep_picks });
            }
        }
        // Delta-scrape the maintenance counters of every cache structure
        // (plain u64s in wafl-core; this is their only reader).
        let free_log_delta = self.free_log.take_hbps_stats();
        self.obs.record_hbps_stats(free_log_delta);
        for g in &mut self.groups {
            match g.cache.as_mut() {
                Some(GroupCache::Heap(cache)) => {
                    let delta = cache.take_stats();
                    self.obs.record_heap_stats(delta);
                }
                Some(GroupCache::Hbps(hbps)) => {
                    let delta = hbps.take_stats();
                    self.obs.record_hbps_stats(delta);
                }
                None => {}
            }
        }
        for vol in &mut self.vols {
            if let Some(cache) = vol.cache.as_mut() {
                let delta = cache.take_hbps_stats();
                self.obs.record_hbps_stats(delta);
            }
        }
        // Space gauges: cheap scalars from the summary counters. The
        // per-group gauges are name-formatted (dynamic group count) —
        // once per completed CP, not on any hot path.
        self.obs
            .gauge_free_fraction
            .set(self.bitmap.free_fraction());
        self.obs
            .gauge_delayed_free_backlog
            .set(self.free_log.pending() as f64);
        for (i, g) in self.groups.iter().enumerate() {
            let data = g.geometry.data_blocks();
            let free = self.bitmap.free_count_range(g.geometry.base_vbn, data);
            self.obs
                .registry()
                .gauge(&format!("group.{i}.free_fraction"))
                .set(free as f64 / data.max(1) as f64);
            let active_score = g
                .active_aa
                .map(|aa| g.topology.score_from_bitmap(&self.bitmap, aa).get())
                .unwrap_or(0);
            self.obs
                .registry()
                .gauge(&format!("group.{i}.active_aa_score"))
                .set(active_score as f64);
        }
        // Per-volume metrics under the vol=<id> label prefix: cursor
        // traffic from this CP's drains plus the volume's space gauge.
        // Name-formatted like the group gauges — CP-boundary only.
        for (vol, &(hits, misses)) in self.vols.iter().zip(&per_vol_cursor) {
            if hits > 0 {
                self.obs
                    .vol_counter(vol.id, "allocator.cursor_hits")
                    .inc(hits);
            }
            if misses > 0 {
                self.obs
                    .vol_counter(vol.id, "allocator.cursor_misses")
                    .inc(misses);
            }
            self.obs
                .vol_gauge(vol.id, "space.free_fraction")
                .set(vol.bitmap.free_fraction());
        }
        // One time-series row per completed CP (no-op when tracing is
        // off): the registry deltas since the previous sample.
        self.obs.sample_cp_series(stats.cp_index);
        Ok(CpOutcome::Completed(stats))
    }

    /// Physical-allocation quotas per RAID group for `n` blocks. With the
    /// cache enabled, weight each group by its best AA score — the §4.2
    /// bias that sends more blocks to emptier groups; apply the §3.3.1
    /// back-off threshold. Without the cache, weight by raw free space.
    fn rg_quotas(&self, n: usize) -> Vec<usize> {
        let weights: Vec<f64> = self
            .groups
            .iter()
            .map(|g| {
                if let Some(cache) = g.cache.as_ref() {
                    // The active AA is out of the cache while draining;
                    // the group's quality is the better of it and the
                    // cache's best.
                    let cache_best = match cache {
                        GroupCache::Heap(h) => h.best().map(|(_, s)| s.get()).unwrap_or(0),
                        GroupCache::Hbps(h) => h.peek_best().map(|(_, s)| s.get()).unwrap_or(0),
                    };
                    let active = g
                        .active_aa
                        .map(|aa| g.topology.score_from_bitmap(&self.bitmap, aa).get())
                        .unwrap_or(0);
                    let best = cache_best.max(active) as f64;
                    let max = (g.stripes_per_aa * g.geometry.data_devices as u64) as f64;
                    let frac = best / max.max(1.0);
                    if frac < self.cfg.rg_backoff_threshold {
                        0.0
                    } else if g.profile.media == wafl_types::MediaType::Ssd {
                        best * self.cfg.ssd_tier_bias
                    } else {
                        best
                    }
                } else {
                    // No cache: weight by raw free space. The per-page
                    // summary counters answer this in O(pages-touched-
                    // partially) — full pages never popcount, so quota
                    // computation stays cheap even on million-block
                    // groups.
                    self.bitmap
                        .free_count_range(g.geometry.base_vbn, g.geometry.data_blocks())
                        as f64
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            // Everything backed off or empty: spread evenly; the shortfall
            // loop in run_cp deals with reality.
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
        // Hand out the rounding remainder to the heaviest groups.
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
        for i in 0..n - assigned {
            quotas[order[i % order.len()]] += 1;
        }
        quotas
    }
}

/// Cost one CP's writes to a group over allocation runs. The retired
/// per-block costing path lives on in `wafl-oracle`; its numbers are
/// identical (the run analyzer is equivalence-tested against the
/// per-block one, and the media models see the same sorted chain/DBN
/// sequences), but this hot path scales with run count, not block count.
fn cost_raid_group_runs(
    g: &mut crate::aggregate::RaidGroupState,
    runs: &[(Vbn, u64)],
    checksum: ChecksumStyle,
) -> WaflResult<RgCpStats> {
    let rw = analyze_cp_write_runs(&g.geometry, runs)?;
    let analysis = &rw.analysis;
    let mut rg = RgCpStats {
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
    if analysis.data_blocks == 0 {
        return Ok(rg);
    }
    let d = g.geometry.data_devices as usize;
    let mut dev_times: Vec<f64> = Vec::with_capacity(g.media.len());
    let azcs_next = &mut g.azcs_next;
    for (i, media) in g.media.iter_mut().enumerate() {
        // Data devices write their merged chains; each parity device
        // writes one block per written stripe — the stripe union.
        let chains: &[(u64, u64)] = if i < d {
            &rw.device_chains[i]
        } else {
            &rw.stripe_intervals
        };
        if chains.is_empty() {
            dev_times.push(0.0);
            continue;
        }
        let us = match media {
            DeviceMedia::Hdd(h) => {
                let blocks: u64 = chains.iter().map(|&(_, l)| l).sum();
                h.write_cost_us(chains.len() as u64, blocks)
            }
            DeviceMedia::Ssd(ftl) => ftl.write_batch(
                chains
                    .iter()
                    .flat_map(|&(s, l)| (s..s + l).map(|b| b as u32)),
            )?,
            DeviceMedia::Smr(smr) => {
                let phys = match checksum {
                    ChecksumStyle::Azcs => azcs_physical_chains(&mut azcs_next[i], chains),
                    ChecksumStyle::Sector520 => chains.to_vec(),
                };
                let mut t = 0.0;
                for (start, len) in phys {
                    t += smr.write_chain(start, len)?;
                }
                t
            }
            DeviceMedia::Object(o) => o.write_cost_us(chains),
        };
        dev_times.push(us);
    }
    let parity_read_us = match g.media.first() {
        Some(DeviceMedia::Hdd(h)) => h.random_read_cost_us(analysis.parity_reads),
        Some(DeviceMedia::Ssd(s)) => {
            s.random_read_cost_us(analysis.parity_reads) / s.channels.max(1.0)
        }
        Some(DeviceMedia::Smr(s)) => analysis.parity_reads as f64 * (s.position_us + s.transfer_us),
        Some(DeviceMedia::Object(o)) => o.random_read_cost_us(analysis.parity_reads),
        None => 0.0,
    };
    rg.media_us = dev_times.iter().copied().fold(0.0, f64::max) + parity_read_us;
    Ok(rg)
}

/// No open AZCS stream on the device.
const AZCS_IDLE: u64 = u64::MAX;

/// Translate data-space chains into physical chains on an AZCS device
/// (§3.2.4): every 63 data blocks are followed by their checksum block.
///
/// Stateful per device: `next` is the data DBN expected to extend the
/// device's open region. A chain continuing at `next` streams on; its
/// regions get their checksum blocks written in-line as each completes,
/// and an incomplete tail region stays *open* (its checksum is buffered —
/// the next CP continues the same AA sequentially). A chain that *jumps*
/// (AA switch) first flushes the open region's checksum block as a
/// separate write — random, and behind the zone write pointer once later
/// writes fill the region — which is exactly the Fig 9 penalty that
/// AZCS-aligned AA sizing eliminates (aligned AAs always end on a region
/// boundary, so no region is ever left open at a switch).
fn azcs_physical_chains(next: &mut u64, data_chains: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let phys = |d: u64| d + d / AZCS_DATA_BLOCKS;
    let mut out = Vec::new();
    for &(start, len) in data_chains {
        let end = start + len; // exclusive, data space
        if *next != AZCS_IDLE && start != *next && !(*next).is_multiple_of(AZCS_DATA_BLOCKS) {
            // Abandoning an open region: flush its checksum block.
            let open_region = (*next - 1) / AZCS_DATA_BLOCKS;
            out.push((open_region * AZCS_REGION_BLOCKS + AZCS_DATA_BLOCKS, 1));
        }
        let first_region = start / AZCS_DATA_BLOCKS;
        let last_region = (end - 1) / AZCS_DATA_BLOCKS;
        for r in first_region..=last_region {
            let r_data_start = r * AZCS_DATA_BLOCKS;
            let r_data_end = r_data_start + AZCS_DATA_BLOCKS;
            let seg_start = start.max(r_data_start);
            let seg_end = end.min(r_data_end);
            let p_start = phys(seg_start);
            let p_len = seg_end - seg_start;
            if seg_end == r_data_end {
                // Region completes: its checksum block streams in-line.
                out.push((p_start, p_len + 1));
            } else {
                // Region left open; checksum buffered until it completes
                // or the stream jumps away.
                out.push((p_start, p_len));
            }
        }
        *next = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn agg(raid_cache: bool, vol_cache: bool) -> Aggregate {
        let cfg = AggregateConfig {
            raid_aware_cache: raid_cache,
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 4,
                parity_devices: 1,
                device_blocks: 16 * 4096,
                profile: MediaProfile::hdd(),
            })
        };
        Aggregate::new(
            cfg,
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: vol_cache,
                    aa_blocks: None,
                },
                50_000,
            )],
            42,
        )
        .unwrap()
    }

    #[test]
    fn empty_cp_is_a_noop() {
        let mut a = agg(true, true);
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 0);
        assert_eq!(s.blocks_written, 0);
        assert_eq!(a.cp_count(), 1);
    }

    #[test]
    fn first_writes_allocate_both_vbn_spaces() {
        let mut a = agg(true, true);
        for l in 0..1000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.ops, 1000);
        assert_eq!(s.blocks_written, 1000);
        // 1000 virtual + 1000 physical blocks allocated.
        assert_eq!(a.volumes()[0].free_blocks(), 8 * 32768 - 1000);
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096 - 1000);
        // Fresh FS: everything lands in empty AAs, colocated — few pages.
        assert!(s.metafile_pages <= 6, "pages {}", s.metafile_pages);
        assert!(s.media_us > 0.0);
        assert!(s.cpu_us > 0.0);
        // The logical blocks are mapped.
        let vol = &a.volumes()[0];
        assert!(vol.lookup_logical(0).is_some());
        assert!(vol.lookup_logical(999).is_some());
        assert!(vol.lookup_logical(1000).is_none());
    }

    #[test]
    fn overwrites_free_old_blocks_at_cp_boundary() {
        let mut a = agg(true, true);
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        let free_v = a.volumes()[0].free_blocks();
        let free_p = a.bitmap().free_blocks();
        // Overwrite the same logical blocks: COW allocates new, frees old.
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        // Net occupancy unchanged: 500 new allocated, 500 old freed.
        assert_eq!(a.volumes()[0].free_blocks(), free_v);
        assert_eq!(a.bitmap().free_blocks(), free_p);
    }

    #[test]
    fn fresh_fs_writes_full_stripes() {
        let mut a = agg(true, true);
        // Enough blocks to fill whole stripes (4 data devices).
        for l in 0..4096 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        let rg = &s.per_rg[0];
        assert!(
            rg.full_stripes > 0,
            "a fresh AA drain must produce full stripes"
        );
        assert!(rg.full_stripes * 4 >= rg.blocks * 9 / 10);
    }

    #[test]
    fn cp_works_without_caches() {
        let mut a = agg(false, false);
        for l in 0..2000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, 2000);
        assert_eq!(a.bitmap().free_blocks(), 4 * 16 * 4096 - 2000);
        // No cache maintenance happened... but batches still drained.
        assert!(a.groups()[0].batch.is_empty());
    }

    #[test]
    fn quotas_follow_best_scores() {
        // Two groups; one aged. More blocks should go to the fresh one.
        let cfg = AggregateConfig {
            raid_groups: vec![
                RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 8 * 4096,
                    profile: MediaProfile::hdd(),
                },
                RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 8 * 4096,
                    profile: MediaProfile::hdd(),
                },
            ],
            ..AggregateConfig::single_group(RaidGroupSpec {
                data_devices: 1,
                parity_devices: 0,
                device_blocks: 1,
                profile: MediaProfile::hdd(),
            })
        };
        let mut a = Aggregate::new(
            cfg,
            &[(
                FlexVolConfig {
                    size_blocks: 16 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                100_000,
            )],
            7,
        )
        .unwrap();
        // Age group 0 by allocating half its blocks randomly.
        crate::aging::seed_rg_random_occupancy(&mut a, 0, 0.5, 123).unwrap();
        for l in 0..10_000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert!(
            s.per_rg[1].blocks > s.per_rg[0].blocks,
            "fresh group {} vs aged {}",
            s.per_rg[1].blocks,
            s.per_rg[0].blocks
        );
    }

    /// A shortfall re-plan of a full heap-cached group finds no block
    /// and returns only the score-0 AA `take_best` popped. That AA goes
    /// back into the heap at the CP boundary like any other drained AA,
    /// so blocks freed into it later are allocated again.
    #[test]
    fn full_group_keeps_every_aa_ranked_through_shortfall_rounds() {
        const PER_CP: u64 = 4096;
        let spec = RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks: 8 * 4096,
            profile: MediaProfile::hdd(),
        };
        // Group 1 is half full everywhere, so it is under the back-off
        // threshold from the start; group 0 takes every write until its
        // last AA is, and from then on the quotas are an even split that
        // group 0 cannot meet.
        let cfg = AggregateConfig {
            raid_groups: vec![spec.clone(), spec.clone()],
            rg_backoff_threshold: 0.9,
            ..AggregateConfig::single_group(spec)
        };
        let mut a = Aggregate::new(
            cfg,
            &[(
                FlexVolConfig {
                    size_blocks: 4 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                120_000,
            )],
            7,
        )
        .unwrap();
        crate::aging::seed_rg_random_occupancy(&mut a, 1, 0.5, 123).unwrap();
        let group0_free = |a: &Aggregate| {
            let geo = &a.groups()[0].geometry;
            a.bitmap().free_count_range(geo.base_vbn, geo.data_blocks())
        };
        // Each CP writes the next `PER_CP` logical blocks.
        fn write_cp(a: &mut Aggregate, written: &mut u64) -> CpStats {
            for l in *written..*written + PER_CP {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            *written += PER_CP;
            a.run_cp().unwrap()
        }
        let mut written = 0u64;
        // Fill group 0, then two more CPs whose even split it cannot
        // take: each re-plans it in a shortfall round.
        while group0_free(&a) > 0 {
            write_cp(&mut a, &mut written);
        }
        for _ in 0..2 {
            let s = write_cp(&mut a, &mut written);
            assert_eq!((s.per_rg[0].blocks, s.per_rg[1].blocks), (0, PER_CP));
        }
        let g = &a.groups()[0];
        let Some(GroupCache::Heap(cache)) = g.cache.as_ref() else {
            panic!("expected a heap cache");
        };
        for aa in (0..g.topology.aa_count()).map(wafl_types::AaId) {
            assert!(
                cache.contains(aa) || g.active_aa == Some(aa),
                "{aa:?} fell out of the ranking"
            );
        }
        // Free 100 blocks in every AA of group 0 and write again: the
        // even split asks group 0 for more than that, so it hands out
        // every one of them.
        let mut freed = vec![0u32; g.topology.aa_count() as usize];
        let mut deletes = Vec::new();
        for l in 0..written {
            let vvbn = a.volumes()[0].lookup_logical(l).unwrap();
            let pvbn = a.volumes()[0].lookup_vvbn(vvbn).unwrap();
            if g.geometry.contains(pvbn) {
                let aa = g.topology.aa_of_vbn(pvbn).unwrap();
                if freed[aa.get() as usize] < 100 {
                    freed[aa.get() as usize] += 1;
                    deletes.push(l);
                }
            }
        }
        for l in deletes {
            a.client_delete(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        assert_eq!(group0_free(&a), 100 * freed.len() as u32);
        write_cp(&mut a, &mut written);
        assert_eq!(group0_free(&a), 0, "freed blocks were not allocated");
    }

    /// With every group under the back-off threshold a 1-block CP's
    /// shares are `[1, 0]`. Group 0 is full, so round 0 finds nothing —
    /// which says nothing about group 1, whose share was 0: the next
    /// round offers it the block.
    #[test]
    fn a_zero_share_round_that_finds_nothing_is_not_exhaustion() {
        let spec = RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks: 4 * 4096,
            profile: MediaProfile::hdd(),
        };
        let cfg = AggregateConfig {
            raid_groups: vec![spec.clone(), spec.clone()],
            rg_backoff_threshold: 0.9,
            ..AggregateConfig::single_group(spec)
        };
        let vol = FlexVolConfig {
            size_blocks: 2 * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let mut a = Aggregate::new(cfg, &[(vol, 60_000)], 7).unwrap();
        crate::aging::seed_rg_random_occupancy(&mut a, 1, 0.5, 123).unwrap();
        let free_in = |a: &Aggregate, rg: usize| {
            let geo = &a.groups()[rg].geometry;
            a.bitmap().free_count_range(geo.base_vbn, geo.data_blocks())
        };
        let mut written = 0u64;
        while free_in(&a, 0) > 0 {
            for l in written..written + 2048 {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            written += 2048;
            a.run_cp().unwrap();
        }
        assert_eq!(a.rg_quotas(1), [1, 0]);
        let group1_free = free_in(&a, 1);
        assert!(group1_free > 0);
        a.client_overwrite(VolumeId(0), written).unwrap();
        let s = a.run_cp().unwrap();
        assert_eq!((s.per_rg[0].blocks, s.per_rg[1].blocks), (0, 1));
        assert_eq!(free_in(&a, 1), group1_free - 1);
    }

    /// A CP cut short after `limit` block writes has claimed exactly the
    /// first `limit` physical VBNs the uncut CP assigns — for limits on
    /// both sides of the boundary between the two groups' shares.
    #[test]
    fn crash_after_block_writes_claims_a_prefix_of_the_plan() {
        const OPS: u64 = 1000;
        let spec = RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks: 8 * 4096,
            profile: MediaProfile::hdd(),
        };
        // Two warm-up CPs, then `OPS` overwrites (half of them of mapped
        // blocks) left queued for the CP under test.
        let queued = || {
            let mut a = Aggregate::new(
                AggregateConfig {
                    raid_groups: vec![spec.clone(), spec.clone()],
                    ..AggregateConfig::single_group(spec.clone())
                },
                &[(
                    FlexVolConfig {
                        size_blocks: 4 * 32768,
                        aa_cache: true,
                        aa_blocks: None,
                    },
                    50_000,
                )],
                7,
            )
            .unwrap();
            for cp in 0..3 {
                for l in 0..OPS {
                    a.client_overwrite(VolumeId(0), cp * OPS / 2 + l * 3 % 2500)
                        .unwrap();
                }
                if cp < 2 {
                    a.run_cp().unwrap();
                }
            }
            a
        };
        let allocated = |a: &Aggregate| -> Vec<bool> {
            (0..a.bitmap().space_len())
                .map(|v| !a.bitmap().is_free(Vbn(v)).unwrap())
                .collect()
        };
        let mut twin = queued();
        let before = allocated(&twin);
        let logicals: Vec<u64> = twin.dirty.iter().map(|d| d.logical).collect();
        let stats = twin.run_cp().unwrap();
        let vol = &twin.volumes()[0];
        let plan: Vec<Vbn> = logicals
            .iter()
            .map(|&l| vol.lookup_vvbn(vol.lookup_logical(l).unwrap()).unwrap())
            .collect();
        let boundary = stats.per_rg[0].blocks;
        assert!(
            0 < boundary && boundary < plan.len() as u64,
            "both groups write"
        );
        for limit in [
            0,
            1,
            boundary - 3,
            boundary,
            boundary + 3,
            plan.len() as u64,
            u64::MAX,
        ] {
            let mut a = queued();
            let outcome = a
                .run_cp_with_faults(Some(CrashSite::AfterBlockWrites(limit)))
                .unwrap();
            assert!(matches!(outcome, CpOutcome::Crashed(_)));
            let mut want = before.clone();
            for pvbn in plan
                .iter()
                .take(usize::try_from(limit).unwrap_or(usize::MAX))
            {
                want[pvbn.index()] = true;
            }
            assert!(allocated(&a) == want, "limit {limit}");
            assert_eq!(a.bitmap().summary_divergences(), 0);
        }
    }

    #[test]
    fn cp_allocates_each_block_once_and_accounts_for_space() {
        let mut a = agg(true, true);
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..6 {
            for _ in 0..3000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        // The run invariants (no double allocation, summary counters
        // exact) are enforced by the bitmap itself; reaching here without
        // a BitmapStateMismatch *is* the disjointness proof. Check space
        // accounting end-to-end on top.
        a.bitmap().verify_summary();
        let mapped = (0..50_000u64)
            .filter(|&l| a.volumes()[0].lookup_logical(l).is_some())
            .count() as u64;
        assert_eq!(
            a.bitmap().free_blocks() + mapped,
            a.bitmap().space_len(),
            "every live logical block occupies exactly one pvbn"
        );
    }

    #[test]
    fn quarantined_aas_are_never_allocated() {
        let mut a = agg(true, true);
        // Quarantine a few physical AAs, then allocate heavily.
        {
            let g = &mut a.groups_mut()[0];
            g.quarantined_aas.insert(wafl_types::AaId(0));
            g.quarantined_aas.insert(wafl_types::AaId(1));
        }
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..4 {
            for _ in 0..2000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        let g = &a.groups()[0];
        for aa in [wafl_types::AaId(0), wafl_types::AaId(1)] {
            for &(start, len) in &g.topology().aa_vbn_ranges(aa) {
                assert_eq!(
                    a.bitmap().free_count_range(start, len) as u64,
                    len,
                    "quarantined AA {aa:?} must never be drained"
                );
            }
            match g.cache.as_ref() {
                Some(GroupCache::Heap(cache)) => {
                    assert!(cache.contains(aa), "quarantined AAs stay ranked")
                }
                _ => panic!("expected a heap cache"),
            }
        }
    }

    #[test]
    fn partial_drains_keep_the_active_cursor() {
        let mut a = agg(true, true);
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..3 {
            for _ in 0..1000 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..50_000))
                    .unwrap();
            }
            a.run_cp().unwrap();
        }
        // 1000 ops per CP never fill an AA, so the quota was met mid-AA:
        // that AA stays the group's active cursor, held *out* of the
        // ranking until it drains dry.
        let g = &a.groups()[0];
        let aa = g.active_aa.expect("quota met mid-AA leaves a cursor");
        match g.cache.as_ref() {
            Some(GroupCache::Heap(cache)) => {
                assert!(!cache.contains(aa), "active cursor must be off the heap");
            }
            _ => panic!("expected a heap cache"),
        }
    }

    #[test]
    fn bind_batch_owner_updates_survive_reads() {
        // End-to-end read-back: data written before a CP remains
        // addressable after it.
        let mut a = agg(true, true);
        for l in 0..500u64 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        a.run_cp().unwrap();
        for l in (0..500u64).step_by(7) {
            let vvbn = a.volumes()[0].lookup_logical(l).expect("mapped");
            assert!(a.volumes()[0].lookup_vvbn(vvbn).is_some());
        }
    }

    #[test]
    fn azcs_chain_translation() {
        let mut st = AZCS_IDLE;
        // A chain covering exactly one region (63 data blocks from 0):
        // physical 0..63 plus the checksum block at 63, in-line -> (0, 64).
        assert_eq!(azcs_physical_chains(&mut st, &[(0, 63)]), vec![(0, 64)]);
        assert_eq!(st, 63);
        // A continuing chain leaves the next region open — no checksum
        // emitted yet (it is buffered until the region completes).
        assert_eq!(azcs_physical_chains(&mut st, &[(63, 10)]), vec![(64, 10)]);
        assert_eq!(st, 73);
        // A jump (AA switch) flushes the open region's checksum block as a
        // separate write, then streams the new chain.
        let chains = azcs_physical_chains(&mut st, &[(630, 5)]);
        assert_eq!(chains, vec![(127, 1), (640, 5)]);
        // Continuing the new position to the region's end absorbs its
        // checksum in-line: region 10 is data 630..693.
        let chains = azcs_physical_chains(&mut st, &[(635, 58)]);
        assert_eq!(chains, vec![(645, 59)]); // 58 data + 1 checksum
                                             // A chain spanning two regions from a fresh stream, ending
                                             // mid-second-region: first region in-line, second left open.
        let mut st2 = AZCS_IDLE;
        let chains = azcs_physical_chains(&mut st2, &[(0, 70)]);
        assert_eq!(chains, vec![(0, 64), (64, 7)]);
    }

    #[test]
    fn stats_accumulate() {
        let mut acc = CpStats::default();
        let mut a = agg(true, true);
        for round in 0..3 {
            for l in 0..100 {
                a.client_overwrite(VolumeId(0), l + round * 100).unwrap();
            }
            let s = a.run_cp().unwrap();
            acc.accumulate(&s);
        }
        assert_eq!(acc.ops, 300);
        assert_eq!(acc.blocks_written, 300);
        assert!(acc.cpu_us > 0.0);
    }

    /// Every number in the drift overlay must stay finite even when the
    /// model prices a phase at zero — `costing` always, and every phase
    /// over a window of empty CPs. The zero-model phases report `ratio:
    /// None` (serialised as JSON `null`) and carry the signal in
    /// `drift_us` instead of an inf/NaN quotient.
    #[test]
    fn drift_overlay_stays_finite_with_zero_model_phases() {
        let cpu = crate::config::CpuModel::default();

        // A normal window: `costing` has wall time but a zero model term.
        let mut acc = CpStats::default();
        let mut a = agg(true, true);
        for l in 0..500 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        acc.accumulate(&a.run_cp().unwrap());
        let overlay = WallClockOverlay::from_window(&acc, 1, &cpu).unwrap();
        assert_eq!(overlay.phases.len(), 5);
        let costing = overlay
            .phases
            .iter()
            .find(|p| p.phase == "costing")
            .unwrap();
        assert_eq!(costing.model_us, 0.0);
        assert!(costing.ratio.is_none(), "zero-model phase must not divide");
        assert!(costing.drift_us.is_finite());
        assert_eq!(costing.drift_us, costing.wall_us);
        for p in &overlay.phases {
            assert!(p.wall_us.is_finite() && p.model_us.is_finite());
            assert!(p.drift_us.is_finite() && p.drift.is_finite());
            if let Some(r) = p.ratio {
                assert!(r.is_finite(), "{}: ratio {r}", p.phase);
            }
        }
        let json = serde_json::to_string(&overlay).unwrap();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"ratio\":null"), "{json}");

        // An all-empty window: wall time accrues (the pipeline still
        // runs) but the model prices the whole window at zero. The
        // overlay must still appear, with absolute-µs drift and no
        // NaN/inf anywhere.
        let mut empty = CpStats::default();
        let mut b = agg(true, true);
        for _ in 0..3 {
            empty.accumulate(&b.run_cp().unwrap());
        }
        assert_eq!(empty.cpu_us, 0.0);
        if empty.wall.phase_sum_us() > 0.0 {
            let overlay = WallClockOverlay::from_window(&empty, 3, &cpu).unwrap();
            assert_eq!(overlay.total_ratio, 0.0);
            for p in &overlay.phases {
                assert!(p.ratio.is_none());
                assert!(p.drift_us.is_finite() && p.model_fraction == 0.0);
            }
            let json = serde_json::to_string(&overlay).unwrap();
            assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        }
    }
}

#[cfg(test)]
mod trim_tests {
    use crate::aggregate::Aggregate;
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn ssd_agg(trim: bool) -> Aggregate {
        Aggregate::new(
            AggregateConfig {
                trim_on_free: trim,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 128 * 120,
                    profile: MediaProfile {
                        erase_block_blocks: 128,
                        ..MediaProfile::ssd()
                    },
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 2 * 32768,
                    aa_cache: true,
                    aa_blocks: Some(2048),
                },
                20_000,
            )],
            6,
        )
        .unwrap()
    }

    /// Extension beyond the paper: forwarding WAFL's delayed frees to the
    /// FTL as TRIMs lets garbage collection skip dead-but-unoverwritten
    /// pages, lowering write amplification further.
    #[test]
    fn trim_on_free_reduces_write_amplification() {
        let measure = |trim: bool| {
            let mut agg = ssd_agg(trim);
            aging::fill_volume(&mut agg, VolumeId(0), 2048).unwrap();
            agg.reset_media_stats();
            aging::random_overwrite_churn(&mut agg, VolumeId(0), 60_000, 2048, 11).unwrap();
            agg.mean_write_amplification()
        };
        let (without, with) = (measure(false), measure(true));
        assert!(
            with <= without,
            "TRIM must not worsen WA: with {with} vs without {without}"
        );
    }
}

#[cfg(test)]
mod batched_free_tests {
    use crate::aggregate::Aggregate;
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;
    use wafl_types::VolumeId;

    fn agg(batched: bool) -> Aggregate {
        Aggregate::new(
            AggregateConfig {
                batched_frees: batched,
                free_pages_per_cp: 2,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 4,
                    parity_devices: 1,
                    device_blocks: 16 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                60_000,
            )],
            8,
        )
        .unwrap()
    }

    #[test]
    fn batched_frees_eventually_reclaim_everything() {
        let mut a = agg(true);
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        aging::random_overwrite_churn(&mut a, VolumeId(0), 60_000, 4096, 3).unwrap();
        // Idle CPs let the background processor drain the log.
        while a.free_log().pending() > 0 {
            a.run_cp().unwrap();
        }
        // Net occupancy identical to the immediate-free world.
        assert_eq!(a.bitmap().space_len() - a.bitmap().free_blocks(), 60_000);
    }

    #[test]
    fn space_pressure_force_drains_the_log() {
        // A volume nearly as large as the aggregate: overwrites quickly
        // exhaust fresh space, so allocation succeeds only by pulling
        // logged frees forward.
        let mut a = Aggregate::new(
            AggregateConfig {
                batched_frees: true,
                free_pages_per_cp: 1,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 8 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 4 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                55_000, // ~84 % of the 65,536-block aggregate
            )],
            8,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        // Several full overwrite passes cannot fit without reclaiming.
        aging::random_overwrite_churn(&mut a, VolumeId(0), 120_000, 4096, 5).unwrap();
        assert_eq!(
            a.bitmap().space_len() - a.bitmap().free_blocks(),
            55_000 + a.free_log().pending()
        );
    }

    /// Random overwrites of a volume that fills ~95 % of a 262,144-block
    /// group, one free-log page per CP: every few CPs the allocator runs
    /// dry and the log is force-drained. After every CP, what entered the
    /// log and did not stay was reported applied — a CP that pulls the log
    /// forward and then runs its budgeted pass counts every free once.
    /// Returns the number of CPs that force-drained.
    fn churn_under_pressure(raid_aware_cache: bool) -> u32 {
        const LOGICAL: u64 = 250_000;
        let mut a = Aggregate::new(
            AggregateConfig {
                batched_frees: true,
                free_pages_per_cp: 1,
                raid_aware_cache,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 32 * 4096,
                    profile: MediaProfile::hdd(),
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: 8 * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                LOGICAL,
            )],
            8,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut force_drains = 0;
        for cp in 0..35 {
            for _ in 0..4096 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..LOGICAL))
                    .unwrap();
            }
            let before = a.free_log().pending();
            let s = a
                .run_cp()
                .unwrap_or_else(|e| panic!("cp {cp}: {e} with {before} frees logged"));
            // The volume is full, so every op frees the block it
            // overwrote.
            assert_eq!(
                s.delayed_frees_applied,
                before + s.ops - a.free_log().pending(),
                "cp {cp}"
            );
            // More pages than the budget means the log was force-drained.
            force_drains += (s.delayed_free_pages > 1) as u32;
        }
        assert_eq!(crate::iron::check(&a).unwrap().stale_scores, 0);
        force_drains
    }

    /// Without the RAID-aware cache the re-plan scores AAs from the
    /// bitmap, so it finds the blocks a force-drain has just freed.
    #[test]
    fn force_drained_frees_are_counted_with_the_budgeted_ones() {
        assert!(churn_under_pressure(false) > 0, "the run must force-drain");
    }

    /// A max-heap ranks by its own score array, which the force-drain
    /// has to update: otherwise the re-plan sees only score-0 AAs and
    /// the CP fails with the freed blocks sitting in the bitmap.
    #[test]
    fn force_drain_reaches_a_heap_cached_group() {
        assert!(churn_under_pressure(true) > 0, "the run must force-drain");
    }

    #[test]
    fn batched_mode_touches_fewer_free_pages_per_cp() {
        let run = |batched: bool| {
            let mut a = agg(batched);
            aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
            a.bitmapless_dirty_reset();
            let stats =
                aging::random_overwrite_churn(&mut a, VolumeId(0), 30_000, 1024, 9).unwrap();
            stats.metafile_pages
        };
        let immediate = run(false);
        let batched = run(true);
        assert!(
            batched < immediate,
            "batched {batched} pages vs immediate {immediate}"
        );
    }
}
