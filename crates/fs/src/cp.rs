//! The consistency point: flush everything collected since the last CP as
//! one transaction (§2.1), allocating virtual + physical VBNs from the
//! emptiest AAs and batching all score updates at the boundary (§3.3).
//! The transaction is a fixed sequence of [`Stage`]s run by one driver.

use crate::aggregate::{Aggregate, DeviceMedia, GroupCache, RaidGroupState};
use crate::allocator::{
    allocate_vvbns, plan_group_sweep, plan_raid_group, AllocOutcome, AllocatorMode,
};
use crate::config::CpuModel;
use crate::volume::{FlexVol, QueuedOp};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use wafl_core::{book_spans, AaSpanFinder, AaTopology};
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

/// The timed stages of a CP in execution order, and the one place a
/// stage is named: `<name>` below is the `CpWallClock::<name>_us` field,
/// the `cp.wall.<name>_us` histogram and the `cp.<name>` trace span.
///
/// Metafile accounting is named `apply` because the frozen benchmark reads
/// `CpWallClock::apply_us`: the stage applied the planned runs to the
/// bitmaps until the plans began claiming blocks where they find them
/// (PR 21), and since then it only counts the pages the CP dirtied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    /// Virtual (per-volume) allocation.
    PlanVirtual,
    /// Physical (per-group) allocation: shares, the shortfall, a sweep.
    PlanPhysical,
    /// Logical → virtual → physical binding, then the queued deletes.
    Bind,
    /// Delayed frees (§3.3): virtual, then physical.
    Frees,
    /// Metafile accounting (§2.5).
    Apply,
    /// Media costing.
    Costing,
    /// CP-boundary cache rebalance.
    Rebalance,
}

impl Stage {
    pub(crate) const COUNT: usize = 7;
    pub(crate) const ALL: [Stage; Stage::COUNT] = [
        Stage::PlanVirtual,
        Stage::PlanPhysical,
        Stage::Bind,
        Stage::Frees,
        Stage::Apply,
        Stage::Costing,
        Stage::Rebalance,
    ];

    /// The trace span, `cp.<name>`.
    pub(crate) fn span(self) -> &'static str {
        match self {
            Stage::PlanVirtual => "cp.plan_virtual",
            Stage::PlanPhysical => "cp.plan_physical",
            Stage::Bind => "cp.bind",
            Stage::Frees => "cp.frees",
            Stage::Apply => "cp.apply",
            Stage::Costing => "cp.costing",
            Stage::Rebalance => "cp.rebalance",
        }
    }

    pub(crate) fn name(self) -> &'static str {
        &self.span()["cp.".len()..]
    }

    /// The stage at whose end a crash at `site` strikes; `None` for the
    /// TopAA sites, which strike once the CP has committed.
    fn cut_by(site: CrashSite) -> Option<Stage> {
        match site {
            CrashSite::AfterBlockWrites(_) => Some(Stage::PlanPhysical),
            CrashSite::AfterBind => Some(Stage::Bind),
            CrashSite::MidFreeLogApply(_) => Some(Stage::Frees),
            CrashSite::BeforeTopAaPersist | CrashSite::AfterTopAaPersist => None,
        }
    }
}

/// Measured wall-clock time of one CP's stages, µs.
///
/// Every completed CP records these from a monotonic clock around each
/// [`Stage`] — the only real-time measurement below the harness layer
/// (the simulated cost model behind [`CpStats::cpu_us`] never reads a
/// clock). About ten `Instant` reads per multi-millisecond CP, so the
/// overlay itself is measurement noise. `simulate --check` compares these
/// against the cost model's per-stage terms and reports the ratio drift
/// (see [`WallClockOverlay`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CpWallClock {
    /// Virtual (per-volume) allocation planning.
    pub plan_virtual_us: f64,
    /// Physical (per-group) allocation, including quota computation, any
    /// force-drain of the delayed-free log and the later rounds.
    pub plan_physical_us: f64,
    /// Metafile accounting: counting the bitmap pages the CP dirtied (the
    /// `apply` stage; [`Stage`] says why it has that name).
    pub apply_us: f64,
    /// Logical→virtual→physical binding and queued deletions.
    pub bind_us: f64,
    /// Delayed-free flush: virtual frees, then physical frees.
    pub frees_us: f64,
    /// Per-group media costing.
    pub costing_us: f64,
    /// CP-boundary cache rebalance (batch application + replenish).
    pub rebalance_us: f64,
    /// The whole CP pipeline: the first stage's start to the CPU model.
    pub total_us: f64,
}

impl CpWallClock {
    /// The field timing `stage`.
    pub(crate) fn stage_mut(&mut self, stage: Stage) -> &mut f64 {
        match stage {
            Stage::PlanVirtual => &mut self.plan_virtual_us,
            Stage::PlanPhysical => &mut self.plan_physical_us,
            Stage::Bind => &mut self.bind_us,
            Stage::Frees => &mut self.frees_us,
            Stage::Apply => &mut self.apply_us,
            Stage::Costing => &mut self.costing_us,
            Stage::Rebalance => &mut self.rebalance_us,
        }
    }

    pub(crate) fn stage_us(mut self, stage: Stage) -> f64 {
        *self.stage_mut(stage)
    }

    /// Merge another CP's wall clock into an accumulator.
    pub fn accumulate(&mut self, other: &CpWallClock) {
        for stage in Stage::ALL {
            *self.stage_mut(stage) += other.stage_us(stage);
        }
        self.total_us += other.total_us;
    }

    /// Sum of the individually timed stages (excludes pipeline glue that
    /// only `total_us` covers).
    pub fn phase_sum_us(&self) -> f64 {
        Stage::ALL.iter().map(|&stage| self.stage_us(stage)).sum()
    }
}

/// The simulated CPU cost of a CP, or of a window of them, term by term
/// (§4.1.2). Computed only by [`CpuTerms::of`]: `CpStats::cpu_us` is the
/// sum, and the `cp.phase.*` histograms, the stage spans and the
/// [`WallClockOverlay`] read the terms. The measured laps never feed it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CpuTerms {
    client_us: f64,
    metafile_us: f64,
    blocks_us: f64,
    alloc_scan_us: f64,
    cache_us: f64,
    replenish_us: f64,
}

/// Reads one term of a [`CpuTerms`].
type CpuTerm = fn(&CpuTerms) -> f64;

impl CpuTerms {
    /// Each term with its `cp.phase.*` histogram.
    pub(crate) const HISTOGRAMS: [(&'static str, CpuTerm); 6] = [
        ("cp.phase.client_ops_us", |t| t.client_us),
        ("cp.phase.metafile_us", |t| t.metafile_us),
        ("cp.phase.block_writes_us", |t| t.blocks_us),
        ("cp.phase.alloc_scan_us", |t| t.alloc_scan_us),
        ("cp.phase.cache_maintenance_us", |t| t.cache_us),
        ("cp.phase.replenish_scan_us", |t| t.replenish_us),
    ];

    /// The terms of `stats`' counters, whose `cache_maintenance_us` is
    /// already priced from the cache operations the CP performed.
    pub(crate) fn of(stats: &CpStats, cpu: &CpuModel) -> CpuTerms {
        CpuTerms {
            client_us: stats.ops as f64 * cpu.base_us_per_op,
            metafile_us: stats.metafile_pages as f64 * cpu.us_per_metafile_page,
            blocks_us: stats.blocks_written as f64 * cpu.us_per_block,
            alloc_scan_us: stats.blocks_examined as f64 * cpu.us_per_alloc_candidate,
            cache_us: stats.cache_maintenance_us,
            replenish_us: stats.replenish_pages as f64 * cpu.us_per_scan_page,
        }
    }

    /// The modelled CPU time: every term, summed in table order.
    pub(crate) fn total_us(&self) -> f64 {
        Self::HISTOGRAMS.iter().map(|(_, term)| term(self)).sum()
    }

    /// The terms charged to `stage`: each term to exactly one stage.
    pub(crate) fn stage_us(&self, stage: Stage) -> f64 {
        match stage {
            Stage::PlanVirtual | Stage::Frees | Stage::Costing => 0.0,
            Stage::PlanPhysical => self.alloc_scan_us,
            Stage::Bind => self.client_us + self.blocks_us,
            Stage::Apply => self.metafile_us,
            Stage::Rebalance => self.cache_us + self.replenish_us,
        }
    }
}

/// One stage's wall-vs-model comparison inside a [`WallClockOverlay`].
#[derive(Clone, Debug, Serialize)]
pub struct PhaseDrift {
    /// Stage name (`plan_virtual`, `bind`, …).
    pub phase: String,
    /// This stage's fraction of the measured wall-clock stage time.
    pub wall_fraction: f64,
    /// This stage's fraction of the modelled CPU time.
    pub model_fraction: f64,
    /// `wall_fraction - model_fraction`.
    pub drift: f64,
    /// Measured wall time in this stage over the window, µs.
    pub wall_us: f64,
    /// Modelled cost charged to this stage over the window, µs.
    pub model_us: f64,
    /// `wall_us - model_us` — the absolute drift. This is the signal to
    /// read for stages the model prices at zero (`plan_virtual`, `frees`
    /// and `costing` always; any stage over a window of empty CPs),
    /// where a wall/model quotient would be infinite or NaN.
    pub drift_us: f64,
    /// `wall_us / model_us`, or `None` when the modelled cost is zero —
    /// never NaN/inf, so the JSON health report stays finite.
    pub ratio: Option<f64>,
}

/// Wall-clock overlay over a measurement window: how the CP pipeline's
/// *measured* stage ratios compare with the simulated cost model's — the
/// ROADMAP item "validate the model's phase ratios against real
/// execution time". Built from an accumulated [`CpStats`] window.
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
    /// Per-stage fractions and their drift, in stage order.
    pub phases: Vec<PhaseDrift>,
    /// Largest absolute per-stage drift.
    pub max_abs_drift: f64,
}

impl WallClockOverlay {
    /// Build the overlay from an accumulated window of `cps` consistency
    /// points: one row per stage, charged the model terms its trace span
    /// carries ([`CpuTerms::stage_us`]). Returns `None` for an empty
    /// window (no completed CPs).
    pub fn from_window(stats: &CpStats, cps: u64, cpu: &CpuModel) -> Option<WallClockOverlay> {
        let w = &stats.wall;
        let wall_sum = w.phase_sum_us();
        if cps == 0 || wall_sum <= 0.0 {
            return None;
        }
        let terms = CpuTerms::of(stats, cpu);
        let model_sum = stats.cpu_us;
        // A window of empty CPs models zero cost everywhere; 0/0
        // fractions must not poison the report with NaN.
        let of_model = |us: f64| if model_sum > 0.0 { us / model_sum } else { 0.0 };
        let phases: Vec<PhaseDrift> = Stage::ALL
            .iter()
            .map(|&stage| {
                let (wall, model) = (w.stage_us(stage), terms.stage_us(stage));
                PhaseDrift {
                    phase: stage.name().to_string(),
                    wall_fraction: wall / wall_sum,
                    model_fraction: of_model(model),
                    drift: wall / wall_sum - of_model(model),
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
            total_ratio: of_model(w.total_us),
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

/// What a CP's stages tally for the CPU model and the export, beside (not
/// in) its [`CpStats`].
#[derive(Default)]
struct CpTally {
    /// `(true best − picked score, bin width)` of every audited pick.
    pick_errors: Vec<(u32, u32)>,
    /// Picks served by a linear bitmap sweep.
    sweep_picks: u64,
    /// AA-cache operations, priced by the CPU model.
    cache_ops: u64,
    /// Drain-cursor hits and misses per volume.
    vol_cursor: Vec<(u64, u64)>,
}

/// One CP in flight: what any stage may read or add to besides its typed
/// inputs and outputs, and the clock the driver laps.
struct CpRun {
    crash: Option<CrashSite>,
    /// Seeds the random AA picks of both planners.
    seed: u64,
    stats: CpStats,
    tally: CpTally,
    /// Start of the first stage, and end of the last one run.
    t0: Instant,
    mark: Instant,
    stages_run: usize,
    /// Flight-recorder time of `t0`, when tracing is on and stages ran.
    trace_t0: Option<f64>,
}

impl CpRun {
    /// Fold one allocation plan's counters into the CP's, its picks into
    /// the volume (`virtual_space`) or aggregate pick statistics.
    fn fold_plan(&mut self, plan: &AllocOutcome, topology: &AaTopology, virtual_space: bool) {
        let s = &mut self.stats;
        let (picks, free_sum) = if virtual_space {
            (&mut s.vol_picks, &mut s.vol_pick_free_sum)
        } else {
            (&mut s.agg_picks, &mut s.agg_pick_free_sum)
        };
        *picks += plan.picked.len() as u64;
        for &(aa, score) in &plan.picked {
            *free_sum += score.get() as f64 / (topology.aa_blocks(aa) as f64).max(1.0);
        }
        s.blocks_examined += plan.blocks_examined;
        s.replenish_pages += plan.replenish_pages;
        s.cursor_hits += plan.cursor_hits;
        s.cursor_misses += plan.cursor_misses;
        self.tally.pick_errors.extend_from_slice(&plan.pick_errors);
        self.tally.sweep_picks += plan.sweep_picks;
    }
}

/// Why a CP stopped short of completing.
enum Stop {
    Crashed(CrashSite),
    Failed(WaflError),
}

impl From<WaflError> for Stop {
    fn from(e: WaflError) -> Stop {
        Stop::Failed(e)
    }
}

/// The physical plans of a CP.
struct PhysicalPlan {
    /// Every plan with its group's index, in the order made, its blocks
    /// and runs moved out to the fields below.
    plans: Vec<(usize, AllocOutcome)>,
    /// Every pvbn claimed, in the volumes' order.
    pvbns: Vec<Vbn>,
    /// Each group's runs, for media costing.
    per_rg_runs: Vec<Vec<(Vbn, u64)>>,
}

impl Aggregate {
    /// Run one consistency point over every op queued since the last, and
    /// return its cost and layout statistics. A CP whose writes do not fit
    /// is refused with `SpaceExhausted`: it changes nothing, ops included.
    pub fn run_cp(&mut self) -> WaflResult<CpStats> {
        match self.run_cp_with_session(None, None)? {
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
        self.run_cp_with_session(crash, None)
    }

    /// [`Aggregate::run_cp_with_faults`] plus a live [`FaultSession`]: due
    /// runtime scribbles fire at the CP's start (in-memory corruption of
    /// summary counters / cached scores while the aggregate serves
    /// traffic), and the runtime scrubber's verify reads go through the
    /// session's scrub read-error schedule.
    ///
    /// Every CP ends here: completed (exported and counted, empty CPs
    /// included), crashed, or failed.
    pub fn run_cp_with_session(
        &mut self,
        crash: Option<CrashSite>,
        faults: Option<&mut FaultSession<'_>>,
    ) -> WaflResult<CpOutcome> {
        match (self.run_to_commit(crash, faults), crash) {
            (Ok(cp), None) => {
                self.export(&cp);
                Ok(CpOutcome::Completed(cp.stats))
            }
            // A crash at the end of a stage, or after the commit
            // (BeforeTopAaPersist / AfterTopAaPersist: whether the
            // caller's TopAA image is one CP stale only the caller,
            // holding the persisted image, can model). The process dies
            // at the site, and the in-memory stats with it: a crashed CP
            // exports no metrics.
            (Err(Stop::Crashed(site)), _) | (Ok(_), Some(site)) => {
                self.lose_volatile_state();
                Ok(CpOutcome::Crashed(site))
            }
            (Err(Stop::Failed(e)), _) => Err(e),
        }
    }

    /// A CP up to its commit: runtime faults and the scrub step, then the
    /// stages — unless there is nothing to flush or free.
    fn run_to_commit(
        &mut self,
        crash: Option<CrashSite>,
        mut faults: Option<&mut FaultSession<'_>>,
    ) -> Result<CpRun, Stop> {
        // Scribbles land first (memory corruption strikes at arbitrary
        // points; the CP boundary is where the simulation quantizes it),
        // then the scrubber settles its due tickets and gets its budgeted
        // verification pass — before any allocation of this CP trusts
        // the summary counters.
        if let Some(session) = faults.as_deref_mut() {
            crate::scrub::apply_due_runtime_scribbles(self, session);
        }
        if self.scrub.due() {
            crate::scrub::run_step(self, faults);
        }
        let queued: Vec<_> = self.vols.iter_mut().map(FlexVol::take_queued).collect();
        let n = queued.iter().map(|(writes, _)| writes.len() as u64).sum();
        if !self.fits(&queued, n) {
            // Refused whole, before any stage claims a bit: the ops wait
            // in their queues for the client to free space or cancel.
            for (vol, (writes, deletes)) in self.vols.iter_mut().zip(queued) {
                let mut requeue = |ls: Vec<u64>, op| ls.into_iter().for_each(|l| vol.queue(l, op));
                requeue(writes, QueuedOp::Write);
                requeue(deletes, QueuedOp::Delete);
            }
            return Err(Stop::Failed(WaflError::SpaceExhausted));
        }
        let now = Instant::now();
        let mut cp = CpRun {
            crash,
            seed: self.cp_count.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            stats: CpStats {
                cp_index: self.cp_count,
                ops: n,
                blocks_written: n,
                ..CpStats::default()
            },
            tally: CpTally::default(),
            t0: now,
            mark: now,
            stages_run: 0,
            trace_t0: None,
        };
        if queued.iter().any(|(w, d)| !w.is_empty() || !d.is_empty())
            || self.free_log.pending() > 0
            || !self.delayed_pvbn_frees.is_empty()
            || self.vols.iter().any(|v| !v.delayed_vvbn_frees.is_empty())
        {
            self.run_stages(&queued, &mut cp)?;
        } else if let Some(site) = crash {
            // Nothing to tear: the process still dies at the site.
            return Err(Stop::Crashed(site));
        }
        self.cp_count += 1;
        Ok(cp)
    }

    /// Admission: `n` queued writes fit if each volume's fit its free
    /// blocks and the frees this CP owes it, and all fit the aggregate's
    /// free blocks and the frees owed to it: the delayed ones (a snapshot
    /// delete's) and the logged ones. The planners land what they need of
    /// those first. A CP's own overwrites and deletes free blocks only
    /// after [`Stage::Bind`], so every write counts in full. AZCS checksum
    /// blocks need no room: they are only costed (`azcs_physical_chains`),
    /// never allocated.
    fn fits(&self, queued: &[(Vec<u64>, Vec<u64>)], n: u64) -> bool {
        let free = self.bitmap.free_blocks();
        // A crash mid-apply can leave logged frees whose bits are clear.
        let live = |v: &&Vbn| self.bitmap.is_free(**v) == Ok(false);
        let logged = || self.free_log.pending_vbns().iter().filter(live).count() as u64;
        let delayed = || self.delayed_pvbn_frees.iter().filter(live).count() as u64;
        let vol_fits = |(v, (w, _)): (&FlexVol, &(Vec<u64>, _))| {
            w.len() <= v.bitmap.free_blocks() as usize + v.delayed_vvbn_frees.len()
        };
        (n <= free || n <= free + delayed() + logged())
            && self.vols.iter().zip(queued).all(vol_fits)
    }

    /// The [`Stage`]s in order, then the CPU model.
    fn run_stages(&mut self, queued: &[(Vec<u64>, Vec<u64>)], cp: &mut CpRun) -> Result<(), Stop> {
        cp.trace_t0 = self.obs.trace_now_us();
        cp.t0 = Instant::now();
        cp.mark = cp.t0;
        let vvbns = self.stage(cp, Stage::PlanVirtual, |a, cp| a.plan_virtual(queued, cp))?;
        let phys = self.stage(cp, Stage::PlanPhysical, |a, cp| {
            a.plan_physical(cp.stats.blocks_written as usize, cp)
        })?;
        self.stage(cp, Stage::Bind, |a, _| a.bind(queued, &vvbns, &phys.pvbns))?;
        self.stage(cp, Stage::Frees, |a, cp| a.apply_delayed_frees(cp))?;
        self.stage(cp, Stage::Apply, |a, cp| {
            a.count_metafile_pages(&mut cp.stats)
        })?;
        self.stage(cp, Stage::Costing, |a, cp| {
            a.cost_groups(&phys.per_rg_runs, &mut cp.stats)
        })?;
        self.stage(cp, Stage::Rebalance, |a, cp| a.rebalance(&phys.plans, cp))?;
        // The CPU model (§4.1.2): the simulated counters only.
        let stats = &mut cp.stats;
        stats.cache_maintenance_us = cp.tally.cache_ops as f64 * self.cfg.cpu.us_per_cache_op;
        stats.cpu_us = CpuTerms::of(stats, &self.cfg.cpu).total_us();
        stats.wall.total_us = cp.t0.elapsed().as_secs_f64() * 1e6;
        Ok(())
    }

    /// Run one stage and lap the wall clock into its `CpWallClock` field;
    /// a crash scheduled at the stage's end stops the CP there.
    fn stage<T>(
        &mut self,
        cp: &mut CpRun,
        stage: Stage,
        run: impl FnOnce(&mut Aggregate, &mut CpRun) -> WaflResult<T>,
    ) -> Result<T, Stop> {
        debug_assert_eq!(Stage::ALL[cp.stages_run], stage, "stages run in order");
        let out = run(self, cp)?;
        let now = Instant::now();
        *cp.stats.wall.stage_mut(stage) = (now - cp.mark).as_secs_f64() * 1e6;
        cp.mark = now;
        cp.stages_run += 1;
        match cp.crash {
            Some(site) if Stage::cut_by(site) == Some(stage) => Err(Stop::Crashed(site)),
            _ => Ok(out),
        }
    }

    /// Virtual allocation: one plan per volume, in volume order.
    fn plan_virtual(
        &mut self,
        queued: &[(Vec<u64>, Vec<u64>)],
        cp: &mut CpRun,
    ) -> WaflResult<Vec<AllocOutcome>> {
        let mut plans = Vec::with_capacity(self.vols.len());
        for (i, (vol, (logicals, _))) in self.vols.iter_mut().zip(queued).enumerate() {
            if logicals.is_empty() {
                plans.push(AllocOutcome::default());
                continue;
            }
            if logicals.len() as u64 > vol.bitmap.free_blocks() {
                // Admission counted the frees this CP owes the volume.
                vol.flush_delayed_frees()?;
            }
            let mode = if vol.config().aa_cache {
                AllocatorMode::CacheGuided
            } else {
                AllocatorMode::RandomAa
            };
            plans.push(allocate_vvbns(
                vol,
                logicals.len(),
                cp.seed ^ i as u64,
                mode,
            )?);
        }
        for (vol, plan) in self.vols.iter().zip(&plans) {
            cp.fold_plan(plan, &vol.topology, true);
            cp.tally
                .vol_cursor
                .push((plan.cursor_hits, plan.cursor_misses));
        }
        Ok(plans)
    }

    /// Physical allocation for `n` blocks, which admission found room
    /// for. If the bitmap's free blocks are short of `n`, the delayed-free
    /// log is force-drained first. Then three rounds: round 0 offers each
    /// group its weighted share; round 1 offers each group in turn the
    /// whole shortfall; round 2 sweeps each group by popcount for the
    /// blocks a cache missed.
    fn plan_physical(&mut self, n: usize, cp: &mut CpRun) -> WaflResult<PhysicalPlan> {
        if n as u64 > self.bitmap.free_blocks() {
            // Space pressure: pull the frees this CP owes forward, the
            // delayed ones (logged, or applied at once) and the logged
            // ones (the [18]-style reclamation path racing the allocator).
            // A planner that scores AAs from the bitmap (HBPS replenish,
            // random-AA mode, the sweep) finds the freed blocks there; a
            // heap ranks by its own score array, so it gets the batch now.
            let owed = std::mem::take(&mut self.delayed_pvbn_frees);
            if self.cfg.batched_frees {
                for pvbn in owed {
                    self.free_log.log_free(pvbn)?;
                }
            } else if !owed.is_empty() {
                self.free_now(&owed)?;
            }
            self.apply_logged_frees(None, &mut cp.stats)?;
            for g in &mut self.groups {
                if let Some(GroupCache::Heap(cache)) = g.cache.as_mut() {
                    cp.tally.cache_ops += g.batch.touched_aas() as u64;
                    cache.apply_batch(&mut g.batch);
                }
            }
        }
        let mode = if self.cfg.raid_aware_cache {
            AllocatorMode::CacheGuided
        } else {
            AllocatorMode::RandomAa
        };
        let mut quotas = self.rg_quotas(n);
        let block_writes = match cp.crash {
            Some(CrashSite::AfterBlockWrites(limit)) => Some(limit),
            _ => None,
        };
        if let Some(limit) = block_writes {
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
        let mut shortfall = n;
        let mut plans: Vec<(usize, AllocOutcome)> = Vec::with_capacity(self.groups.len());
        // A crash after block writes strikes at the end of round 0: the
        // claimed bits are on stable storage, but no binding was ever
        // recorded — leaks in both VBN spaces.
        let rounds = if block_writes.is_some() { 1 } else { 3 };
        for round in 0..rounds {
            let salt = if round == 0 { 0xABCD_u64 } else { 0xF00D };
            for (i, g) in self.groups.iter_mut().enumerate() {
                // Round 0 offers every group its share, 0 included.
                let quota = match round {
                    0 => quotas[i],
                    _ if shortfall == 0 => break,
                    _ => shortfall,
                };
                let seed = cp.seed ^ (salt + i as u64);
                let plan = match round {
                    2 => plan_group_sweep(g, &mut self.bitmap, quota),
                    _ => plan_raid_group(g, &mut self.bitmap, quota, mode, seed)?,
                };
                shortfall -= plan.vbns.len();
                // A plan that found no block is kept too: a full
                // heap-cached group returns the score-0 AA `take_best`
                // popped in `drained`, for the rebalance to put back.
                plans.push((i, plan));
            }
        }
        if shortfall > 0 && block_writes.is_none() {
            debug_assert!(false, "admitted {n} writes; {shortfall} found no block");
            return Err(WaflError::SpaceExhausted);
        }
        let mut pvbns = Vec::new();
        let mut per_rg_runs = vec![Vec::new(); self.groups.len()];
        for (i, plan) in &mut plans {
            append_or_take(&mut pvbns, &mut plan.vbns);
            append_or_take(&mut per_rg_runs[*i], &mut plan.runs);
            cp.fold_plan(plan, &self.groups[*i].topology, false);
        }
        Ok(PhysicalPlan {
            plans,
            pvbns,
            per_rg_runs,
        })
    }

    /// Bind logical → virtual → physical, then unmap the deletions queued
    /// since the last CP; the blocks both leave behind become delayed
    /// frees in both VBN spaces.
    fn bind(
        &mut self,
        queued: &[(Vec<u64>, Vec<u64>)],
        vvbns: &[AllocOutcome],
        pvbns: &[Vbn],
    ) -> WaflResult<()> {
        // Each volume's pvbns occupy one contiguous chunk (allocation
        // filled `pvbns` in `queued` order).
        let mut off = 0usize;
        for ((vol, (logicals, deletes)), plan) in self.vols.iter_mut().zip(queued).zip(vvbns) {
            debug_assert_eq!(plan.vbns.len(), logicals.len());
            let chunk = &pvbns[off..off + logicals.len()];
            off += logicals.len();
            self.delayed_pvbn_frees
                .extend(vol.remap_batch(logicals, &plan.vbns, chunk));
            self.delayed_pvbn_frees.extend(vol.unmap_batch(deletes));
        }
        Ok(())
    }

    /// Delayed frees at the CP boundary (§3.3): every volume's, then the
    /// physical ones — logged for the background processor under
    /// `batched_frees`, else applied at once.
    fn apply_delayed_frees(&mut self, cp: &mut CpRun) -> WaflResult<()> {
        for vol in &mut self.vols {
            vol.flush_delayed_frees()?;
        }
        let mut frees = std::mem::take(&mut self.delayed_pvbn_frees);
        if self.cfg.batched_frees {
            // §3.3.2's second HBPS use: log the frees; the background
            // processor applies a budgeted number of pages, fullest first.
            for pvbn in frees.drain(..) {
                self.free_log.log_free(pvbn)?;
            }
        }
        if let Some(CrashSite::MidFreeLogApply(k)) = cp.crash {
            // The crash interrupts delayed-free application: `k` frees
            // reach the bitmap. The rest stay pending — in the persistent
            // log when batched (replayed idempotently after remount, the
            // `k` applied ones skipped), lost outright (leaked) when not.
            if self.cfg.batched_frees {
                frees = self.free_log.pending_vbns();
            }
            for &pvbn in frees.iter().take(k as usize) {
                self.bitmap.free(pvbn)?;
            }
        } else if self.cfg.batched_frees {
            self.apply_logged_frees(Some(self.cfg.free_pages_per_cp), &mut cp.stats)?;
        } else if !frees.is_empty() {
            self.free_now(&frees)?;
        }
        Ok(())
    }

    /// Apply logged frees — `pages` metafile pages of them, fullest first,
    /// or under space pressure (`None`) all — each recorded on its group.
    fn apply_logged_frees(&mut self, pages: Option<usize>, stats: &mut CpStats) -> WaflResult<()> {
        let trim = self.cfg.trim_on_free;
        let Aggregate {
            bitmap,
            groups,
            free_log,
            ..
        } = self;
        let record =
            |frees: &[Vbn], _: &mut wafl_bitmap::Bitmap| record_group_frees(groups, frees, trim);
        let applied = match pages {
            Some(pages) => free_log.process(bitmap, pages, record)?,
            None => free_log.force_drain(bitmap, record)?,
        };
        stats.delayed_frees_applied += applied.frees_applied;
        stats.delayed_free_pages += applied.pages_processed;
        Ok(())
    }

    /// Apply physical frees at once, in the order they came: clear them
    /// with the batch free, then book them on their groups. A batch the
    /// bitmap refuses books nothing and TRIMs nothing.
    fn free_now(&mut self, frees: &[Vbn]) -> WaflResult<()> {
        self.bitmap.free_batch(frees)?;
        record_group_frees(&mut self.groups, frees, self.cfg.trim_on_free)
    }

    /// Metafile I/O accounting (§2.5): the distinct bitmap pages the CP
    /// dirtied, aggregate and volumes.
    fn count_metafile_pages(&mut self, stats: &mut CpStats) -> WaflResult<()> {
        let mut pages = self.bitmap.take_dirty_stats().pages_dirtied;
        for vol in &mut self.vols {
            pages += vol.bitmap.take_dirty_stats().pages_dirtied;
        }
        stats.metafile_pages = pages;
        Ok(())
    }

    /// Media costing, group by group. Run-interval analysis — the numbers
    /// `wafl_oracle::cost_raid_group` computes block by block from the
    /// CP's new pvbns (`oracle_parity.rs` compares them after every CP),
    /// for a fraction of the work.
    fn cost_groups(
        &mut self,
        per_rg_runs: &[Vec<(Vbn, u64)>],
        stats: &mut CpStats,
    ) -> WaflResult<()> {
        let checksum = self.cfg.checksum;
        for (g, runs) in self.groups.iter_mut().zip(per_rg_runs) {
            let rg = cost_raid_group_runs(g, runs, checksum)?;
            stats.media_us = stats.media_us.max(rg.media_us);
            stats.media_us_total += rg.media_us;
            stats.per_rg.push(rg);
        }
        Ok(())
    }

    /// CP-boundary cache rebalance (§3.3): each score batch applied to its
    /// cache, the AAs the plans drained back into their heaps, and an
    /// HBPS — a volume's or an object-store group's — rescanned from its
    /// bitmap when its list ran low or its quality degraded.
    fn rebalance(&mut self, plans: &[(usize, AllocOutcome)], cp: &mut CpRun) -> WaflResult<()> {
        let tally = &mut cp.tally;
        let bitmap_ref = &self.bitmap;
        for g in &mut self.groups {
            match g.cache.as_mut() {
                Some(GroupCache::Heap(cache)) => {
                    tally.cache_ops += g.batch.touched_aas() as u64;
                    cache.apply_batch(&mut g.batch);
                    // Drained AAs are reinserted below, post-batch.
                }
                Some(GroupCache::Hbps(cache)) => {
                    tally.cache_ops += g.batch.touched_aas() as u64;
                    cache.apply_cp_batch(&mut g.batch, bitmap_ref)?;
                    if cache.maybe_replenish(bitmap_ref, &mut g.batch)? {
                        cp.stats.replenish_pages += g.scan_pages();
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
        for (i, plan) in plans {
            if let Some(GroupCache::Heap(cache)) = self.groups[*i].cache.as_mut() {
                for &aa in &plan.drained {
                    cache.insert(aa, cache.score_of(aa))?;
                }
                tally.cache_ops += plan.drained.len() as u64;
            }
        }
        for vol in &mut self.vols {
            let Some(cache) = vol.cache.as_mut() else {
                let _ = vol.batch.drain().count();
                continue;
            };
            tally.cache_ops += vol.batch.touched_aas() as u64;
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
                    cp.stats.cp_index,
                    TraceData::CursorInvalidated {
                        vol: vol.id.0,
                        reason: "replenish",
                    },
                );
                cp.stats.replenish_pages += vol.bitmap.page_count() as u64;
            }
        }
        Ok(())
    }

    /// Export a completed CP: its counters, its model terms and stage laps
    /// as histograms and trace spans, the space metrics, and one per-CP
    /// series row.
    fn export(&mut self, cp: &CpRun) {
        let (s, tally, obs) = (&cp.stats, &cp.tally, &self.obs);
        obs.cp_completed.inc(1);
        obs.aas_claimed.inc(s.vol_picks + s.agg_picks);
        obs.blocks_examined.inc(s.blocks_examined);
        obs.sweep_fallback_picks.inc(tally.sweep_picks);
        obs.cursor_hits.inc(s.cursor_hits);
        obs.cursor_misses.inc(s.cursor_misses);
        for &(err, width) in &tally.pick_errors {
            obs.pick_score_error
                .observe(err as f64 / width.max(1) as f64);
        }
        let terms = CpuTerms::of(s, &self.cfg.cpu);
        for ((_, term), h) in CpuTerms::HISTOGRAMS.iter().zip(&obs.cp_phase_us) {
            h.observe(term(&terms));
        }
        obs.cp_phase_media_us.observe(s.media_us);
        obs.cp_wall_total_us.observe(s.wall.total_us);
        for stage in Stage::ALL {
            obs.cp_wall_us[stage as usize].observe(s.wall.stage_us(stage));
        }
        // Flight recorder: the CP-engine track, synthesized from the laps.
        // Spans are journaled whole (start + duration), so the exported
        // begin/end pairs stay balanced even when the journal drops events.
        // The stages are laid end to end from the CP's anchor under one
        // enclosing `cp` span, each with the model terms charged to it.
        if let Some(t0) = cp.trace_t0 {
            let span = |name, dur_us, model_us| TraceData::Span {
                name,
                dur_us,
                model_us,
            };
            obs.trace_at(t0, s.cp_index, span("cp", s.wall.total_us, s.cpu_us));
            let mut ts = t0;
            for stage in Stage::ALL {
                let dur_us = s.wall.stage_us(stage);
                obs.trace_at(
                    ts,
                    s.cp_index,
                    span(stage.span(), dur_us, terms.stage_us(stage)),
                );
                ts += dur_us;
            }
            if tally.sweep_picks > 0 {
                let picks = tally.sweep_picks;
                obs.trace_at(t0, s.cp_index, TraceData::SweepFallback { picks });
            }
        }
        // Space gauges, and per-volume cursor traffic under the `vol=<id>`
        // label prefix. The name-formatted handles (dynamic volume count)
        // are looked up once per CP, never on a hot path.
        obs.gauge_free_fraction.set(self.bitmap.free_fraction());
        obs.gauge_delayed_free_backlog
            .set(self.free_log.pending() as f64);
        for (i, vol) in self.vols.iter().enumerate() {
            let (hits, misses) = tally.vol_cursor.get(i).copied().unwrap_or_default();
            if hits > 0 {
                obs.vol_counter(vol.id, "allocator.cursor_hits").inc(hits);
            }
            if misses > 0 {
                obs.vol_counter(vol.id, "allocator.cursor_misses")
                    .inc(misses);
            }
            obs.vol_gauge(vol.id, "space.free_fraction")
                .set(vol.bitmap.free_fraction());
        }
        self.obs.sample_cp_series(s.cp_index);
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
                        GroupCache::Hbps(c) => {
                            c.hbps().peek_best().map(|(_, s)| s.get()).unwrap_or(0)
                        }
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
            // Everything backed off or empty: spread evenly; the later
            // planning rounds offer each group the shortfall.
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

/// Book applied physical frees, in any order, on their groups: one AA
/// score delta per run of frees in one AA span ([`book_spans`]) and,
/// under `trim_on_free`, a TRIM per block to its SSD. Both free paths
/// book here: the immediate one with a CP's whole batch, the delayed-free
/// log with each page it applies, budgeted or force-drained. A block's
/// group is the last one whose base VBN is not above it, looked up only
/// when the block is not in the last block's group.
fn record_group_frees(groups: &mut [RaidGroupState], frees: &[Vbn], trim: bool) -> WaflResult<()> {
    let finders: Vec<AaSpanFinder> = groups.iter().map(|g| g.topology.span_finder()).collect();
    let mut g = 0;
    let mut group_of = |vbn: Vbn| {
        if !finders[g].covers(vbn) {
            g = finders.partition_point(|f| f.base() <= vbn.get()).max(1) - 1;
        }
        g
    };
    let locate = |vbn| {
        let g = group_of(vbn);
        Ok((g, finders[g].span_of(vbn)?))
    };
    book_spans(frees, locate, |g, aa, n| {
        groups[g].batch.record_freed(aa, n)
    })?;
    if trim {
        for &pvbn in frees {
            trim_freed(&mut groups[group_of(pvbn)], pvbn)?;
        }
    }
    Ok(())
}

/// Tell the FTL of a freed block's SSD that the block is dead (a no-op
/// on other media).
fn trim_freed(g: &mut RaidGroupState, pvbn: Vbn) -> WaflResult<()> {
    let loc = g.geometry.vbn_to_loc(pvbn)?;
    if let DeviceMedia::Ssd(ftl) = &mut g.media[loc.device.index()] {
        ftl.trim(loc.dbn.get() as u32)?;
    }
    Ok(())
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

/// Cost one CP's writes to a group over allocation runs. Its per-block
/// definition is `wafl_oracle::cost_raid_group` (HDD groups), and the
/// numbers are identical: the run analyzer is equivalence-tested against
/// the per-block one, the media models see the same sorted chain/DBN
/// sequences, and `oracle_parity.rs` compares the two after every CP. But
/// this hot path scales with run count, not block count.
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

    /// Ops on one block within one CP coalesce to the client's last one,
    /// on a block mapped before the CP and on one never written: a write
    /// after a delete maps the block again, and a delete after a write
    /// cancels it without allocating a block only to free it.
    #[test]
    fn a_cp_does_each_blocks_last_client_op() {
        type Op = fn(&mut Aggregate, VolumeId, u64) -> WaflResult<()>;
        let (write, delete): (Op, Op) = (Aggregate::client_overwrite, Aggregate::client_delete);
        for (ops, writes) in [
            (vec![delete, write], true),
            (vec![write, delete], false),
            (vec![write, delete, write], true),
            (vec![delete, write, delete], false),
        ] {
            for mapped in [true, false] {
                let ctx = format!("{} ops, mapped before: {mapped}", ops.len());
                let mut a = agg(true, true);
                if mapped {
                    a.client_overwrite(VolumeId(0), 7).unwrap();
                    a.run_cp().unwrap();
                }
                let free = |a: &Aggregate| (a.bitmap().free_blocks(), a.volumes()[0].free_blocks());
                let (old, (pfree, vfree)) = (a.volumes()[0].lookup_logical(7), free(&a));
                for op in &ops {
                    op(&mut a, VolumeId(0), 7).unwrap();
                }
                assert_eq!(a.pending_ops(), 1, "{ctx}");
                let s = a.run_cp().unwrap();
                let now = a.volumes()[0].lookup_logical(7);
                assert_eq!(s.blocks_written, u64::from(writes), "{ctx}");
                assert_eq!(now.is_some(), writes, "{ctx}");
                assert!(now.is_none() || now != old, "{ctx}: COW moves the block");
                // Each VBN space gets the old block back, if there was one,
                // and gives up the new one, if there is one.
                let after = |n: u64| n + u64::from(mapped) - u64::from(writes);
                assert_eq!(free(&a), (after(pfree), after(vfree)), "{ctx}");
            }
        }
    }

    /// A 2 + 1 HDD aggregate of `device_blocks` per device under one
    /// cache-guided volume of `vol_aas` AAs holding `logical` blocks.
    fn small_agg(device_blocks: u64, vol_aas: u64, logical: u64) -> Aggregate {
        let group = RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks,
            profile: MediaProfile::hdd(),
        };
        let vol = FlexVolConfig {
            size_blocks: vol_aas * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        Aggregate::new(AggregateConfig::single_group(group), &[(vol, logical)], 42).unwrap()
    }

    fn free_counts(a: &Aggregate) -> (u64, Vec<u64>) {
        let vols = a.volumes().iter().map(FlexVol::free_blocks).collect();
        (a.bitmap().free_blocks(), vols)
    }

    /// The CP is refused and has changed nothing: its queue of `pending`
    /// ops, `cp_count`, both bitmaps' free counts, and Iron's clean bill.
    fn assert_refused(a: &mut Aggregate, pending: usize) {
        let before = (a.cp_count(), free_counts(a));
        assert!(matches!(a.run_cp(), Err(WaflError::SpaceExhausted)));
        assert_eq!(a.pending_ops(), pending);
        assert_eq!((a.cp_count(), free_counts(a)), before);
        assert_iron_clean(a);
    }

    fn assert_iron_clean(a: &Aggregate) {
        let report = crate::iron::check(a).unwrap();
        assert!(report.is_clean(), "{report:?}");
    }

    /// A CP whose writes do not fit is refused whole, before any stage
    /// claims a block: 4 096 fresh writes a CP into 2 × 17 384 physical
    /// blocks run out at the ninth CP, which leaves its 4 096 writes and
    /// one delete queued. Once the client cancels the writes that do not
    /// fit (a delete after a write cancels it), the next CP commits the
    /// rest and fills the aggregate to its last block.
    #[test]
    fn a_refused_cp_changes_nothing() {
        let mut a = small_agg(4 * 4096 + 1000, 4, 100_000);
        let mut fresh = 0..100_000u64;
        let first = loop {
            let first = fresh.start;
            for l in fresh.by_ref().take(4096) {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            if a.bitmap().free_blocks() < 4096 {
                a.client_delete(VolumeId(0), 7).unwrap();
                break first;
            }
            a.run_cp().unwrap();
        };
        assert_eq!(a.cp_count(), 8);
        assert_refused(&mut a, 4097);
        let fit = first + a.bitmap().free_blocks();
        for l in fit..first + 4096 {
            a.client_delete(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, fit - first);
        assert_eq!(a.bitmap().free_blocks(), 1, "block 7's");
        let vol = &a.volumes()[0];
        assert_eq!(vol.lookup_logical(7), None);
        assert!(vol.lookup_logical(fit - 1).is_some());
        assert_eq!(vol.lookup_logical(fit), None);
        assert_iron_clean(&a);
    }

    /// Admission counts a copy-on-write overwrite of a mapped block in
    /// full, since its old block frees only after Bind: one overwrite more
    /// than the free blocks is refused, and a delete in place of one of
    /// them makes the CP fit.
    #[test]
    fn a_cow_overwrite_counts_in_full() {
        let mut a = small_agg(4 * 4096, 2, 30_000);
        crate::aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        let free = a.bitmap().free_blocks();
        for l in 0..=free {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        assert_refused(&mut a, free as usize + 1);
        a.client_delete(VolumeId(0), free).unwrap();
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, free);
        assert_eq!(a.bitmap().free_blocks(), free + 1);
        assert_iron_clean(&a);
    }

    /// A snapshot pins the blocks an overwrite leaves behind, so they do
    /// not free even after Bind: the CP that overwrites as many blocks as
    /// are free fills the aggregate, and one overwrite more is refused.
    #[test]
    fn a_snapshot_pinned_overwrite_counts_in_full() {
        let mut a = small_agg(4 * 4096, 2, 30_000);
        crate::aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        a.snapshot_create(VolumeId(0)).unwrap();
        let free = a.bitmap().free_blocks();
        for l in 0..free {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        assert_eq!(a.run_cp().unwrap().blocks_written, free);
        assert_eq!(a.bitmap().free_blocks(), 0);
        a.client_overwrite(VolumeId(0), free).unwrap();
        assert_refused(&mut a, 1);
    }

    /// A snapshot delete's frees wait for a CP boundary, and admission
    /// counts them. The aggregate is the short space (its frees applied
    /// at once, then logged), then the volume: the snapshot pins the
    /// blocks that overwrites of every free one left behind, and once it
    /// is deleted, the next CP lands those frees before it plans and
    /// writes the one queued block.
    #[test]
    fn a_snapshot_delete_makes_room_for_the_next_cp() {
        for (device_blocks, vol_aas, batched) in [
            (4 * 4096, 2, false),
            (4 * 4096, 2, true),
            (16 * 4096, 1, false),
        ] {
            let mut a = small_agg(device_blocks, vol_aas, 30_000);
            a.cfg.batched_frees = batched;
            crate::aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
            let snap = a.snapshot_create(VolumeId(0)).unwrap();
            let short = |a: &Aggregate| a.bitmap().free_blocks().min(a.volumes()[0].free_blocks());
            let free = short(&a);
            for l in 0..free {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            assert_eq!(a.run_cp().unwrap().blocks_written, free);
            assert_eq!(short(&a), 0);
            a.snapshot_delete(VolumeId(0), snap).unwrap();
            a.client_overwrite(VolumeId(0), free).unwrap();
            let ctx = format!("{vol_aas} volume AAs, batched frees: {batched}");
            assert_eq!(a.run_cp().unwrap().blocks_written, 1, "{ctx}");
            assert_iron_clean(&a);
        }
    }

    /// Two volumes, and only the second is short of virtual blocks: the
    /// whole CP is refused, and the first volume gets no vvbn either. The
    /// lowest of the second volume's writes overwrites a mapped block, so
    /// cancelling it with a delete also frees that block's vvbn.
    #[test]
    fn one_short_volume_refuses_the_whole_cp() {
        let vol = |aas: u64| FlexVolConfig {
            size_blocks: aas * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let group = RaidGroupSpec {
            data_devices: 4,
            parity_devices: 1,
            device_blocks: 16 * 4096,
            profile: MediaProfile::hdd(),
        };
        let cfg = AggregateConfig::single_group(group);
        let mut a = Aggregate::new(cfg, &[(vol(4), 50_000), (vol(1), 32_768)], 42).unwrap();
        crate::aging::fill_volume_fraction(&mut a, VolumeId(1), 0.9, 4096).unwrap();
        let short = a.volumes()[1].free_blocks();
        for l in 0..1000 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        for l in 0..=short {
            a.client_overwrite(VolumeId(1), 32_767 - l).unwrap();
        }
        assert_refused(&mut a, 1000 + short as usize + 1);
        a.client_delete(VolumeId(1), 32_767 - short).unwrap();
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, 1000 + short);
        assert_eq!(free_counts(&a).1, [4 * 32768 - 1000, 1]);
        assert_iron_clean(&a);
    }

    /// A crash after `limit` block writes, in an admitted CP that fills
    /// the aggregate to its last block, leaks exactly `limit` physical
    /// blocks and every vvbn the CP claimed, as in a roomy CP
    /// (`crash_after_block_writes_claims_a_prefix_of_the_plan` checks
    /// that the blocks are the plan's prefix).
    #[test]
    fn a_crash_in_an_admitted_cp_leaks_its_prefix() {
        for limit in [0, 1000, u64::MAX] {
            let mut a = small_agg(4 * 4096, 2, 40_000);
            crate::aging::fill_volume_fraction(&mut a, VolumeId(0), 0.5, 4096).unwrap();
            let free = a.bitmap().free_blocks();
            for l in 20_000..20_000 + free {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            let outcome = a
                .run_cp_with_faults(Some(CrashSite::AfterBlockWrites(limit)))
                .unwrap();
            assert!(matches!(outcome, CpOutcome::Crashed(_)));
            let report = crate::iron::check(&a).unwrap();
            assert_eq!(report.leaked_blocks, limit.min(free), "limit {limit}");
            assert_eq!(report.leaked_vvbns, free, "limit {limit}");
        }
    }

    /// A crash loses the queued ops and leaves no mark on their blocks:
    /// the same ops queued after the remount reach the next CP.
    #[test]
    fn ops_queued_again_after_a_crash_reach_the_next_cp() {
        let mut a = agg(true, true);
        a.client_overwrite(VolumeId(0), 7).unwrap();
        a.client_overwrite(VolumeId(0), 8).unwrap();
        a.run_cp().unwrap();
        a.client_overwrite(VolumeId(0), 7).unwrap();
        a.client_delete(VolumeId(0), 8).unwrap();
        let mapped = a.volumes()[0].lookup_logical(7);
        crate::mount::crash(&mut a);
        crate::mount::mount_cold(&mut a).unwrap();
        assert_eq!(a.pending_ops(), 0);
        a.client_overwrite(VolumeId(0), 7).unwrap();
        a.client_delete(VolumeId(0), 8).unwrap();
        assert_eq!(a.pending_ops(), 2);
        let s = a.run_cp().unwrap();
        assert_eq!(s.blocks_written, 1);
        assert_ne!(a.volumes()[0].lookup_logical(7), mapped);
        assert_eq!(a.volumes()[0].lookup_logical(8), None);
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
        assert!(g.cache().is_some_and(|c| c.is_complete()));
        assert_eq!(crate::iron::group_cache_divergences(g, a.bitmap()), 0);
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

    /// A crash part-way through applying logged frees leaves entries
    /// whose bits are already clear; the force-drain skips them, so
    /// admission counts only the logged frees still to apply. Near full,
    /// one write more than the free and still-logged blocks is refused
    /// (counting every logged entry would admit it and leave the planner
    /// one block short), and a delete in place of one write fits.
    #[test]
    fn admission_counts_only_the_logged_frees_still_to_apply() {
        const LOGICAL: u64 = 124_000;
        let group = RaidGroupSpec {
            data_devices: 2,
            parity_devices: 1,
            device_blocks: 16 * 4096,
            profile: MediaProfile::hdd(),
        };
        let cfg = AggregateConfig {
            batched_frees: true,
            free_pages_per_cp: 1,
            ..AggregateConfig::single_group(group)
        };
        let vol = FlexVolConfig {
            size_blocks: 8 * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let mut a = Aggregate::new(cfg, &[(vol, LOGICAL)], 8).unwrap();
        crate::aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        crate::aging::random_overwrite_churn(&mut a, VolumeId(0), 4 * 4096, 4096, 5).unwrap();
        for l in 0..100 {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let crash = Some(CrashSite::MidFreeLogApply(10));
        let outcome = a.run_cp_with_faults(crash).unwrap();
        assert!(matches!(outcome, CpOutcome::Crashed(_)));
        crate::mount::mount_cold(&mut a).unwrap();
        let logged = a.free_log().pending_vbns();
        let live = logged.iter().filter(|&&v| !a.bitmap().is_free(v).unwrap());
        let fit = a.bitmap().free_blocks() + live.count() as u64;
        assert!(fit < a.bitmap().free_blocks() + logged.len() as u64);
        assert!(fit < a.volumes()[0].free_blocks(), "the volume has room");
        for l in 0..=fit {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        assert_refused(&mut a, fit as usize + 1);
        a.client_delete(VolumeId(0), fit).unwrap();
        assert_eq!(a.run_cp().unwrap().blocks_written, fit);
        assert_iron_clean(&a);
    }

    /// Near full under `rg_backoff_threshold`, every group's score is
    /// under the threshold, so round 0 splits the CP evenly and full group
    /// 0 takes none of its half. Round 1 offers group 1 the shortfall, and
    /// it takes every last free block without the sweep.
    #[test]
    fn round_1_fills_a_backed_off_group_to_its_last_block() {
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
        let geo = a.groups()[0].geometry.clone();
        let mut written = 0u64;
        while a.bitmap().free_count_range(geo.base_vbn, geo.data_blocks()) > 0 {
            for l in written..written + 2048 {
                a.client_overwrite(VolumeId(0), l).unwrap();
            }
            written += 2048;
            a.run_cp().unwrap();
        }
        let free = a.bitmap().free_blocks();
        let sweeps = |a: &Aggregate| {
            a.obs()
                .counter_value("allocator.sweep_fallback_picks")
                .unwrap()
        };
        let swept = sweeps(&a);
        assert!(a.rg_quotas(free as usize)[1] < free as usize);
        for l in written..written + free {
            a.client_overwrite(VolumeId(0), l).unwrap();
        }
        let s = a.run_cp().unwrap();
        assert_eq!((s.per_rg[0].blocks, s.per_rg[1].blocks), (0, free));
        assert_eq!(a.bitmap().free_blocks(), 0);
        assert_eq!(sweeps(&a), swept, "round 2 swept");
        assert_iron_clean(&a);
    }

    /// One object-store group of 8 AAs with 258 000 of its 262 144 blocks
    /// live and immediate frees. Each churn CP's ~4 060 distinct writes
    /// fit the 4 144 free blocks. So near full, every AA scores in the
    /// HBPS's last bin, and the list cannot tell a full AA from one with
    /// free blocks: a pick can draw a full AA even after the replenish a
    /// miss runs, and the HBPS planner then stops. Round 2's sweep finds
    /// the blocks it left, so every CP commits with Iron clean.
    #[test]
    fn round_2_finds_what_an_hbps_miss_in_the_last_bin_leaves() {
        const LOGICAL: u64 = 258_000;
        let group = RaidGroupSpec {
            data_devices: 1,
            parity_devices: 0,
            device_blocks: 8 * 32768,
            profile: MediaProfile::object_store(),
        };
        let vol = FlexVolConfig {
            size_blocks: 8 * 32768,
            aa_cache: true,
            aa_blocks: None,
        };
        let cfg = AggregateConfig::single_group(group);
        let mut a = Aggregate::new(cfg, &[(vol, LOGICAL)], 0).unwrap();
        crate::aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for cp in 0..4 {
            for _ in 0..4096 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..LOGICAL))
                    .unwrap();
            }
            a.run_cp().unwrap_or_else(|e| panic!("cp {cp}: {e}"));
            assert_iron_clean(&a);
        }
        let sweeps = a.obs().counter_value("allocator.sweep_fallback_picks");
        assert!(sweeps.unwrap() > 0, "round 2 never ran");
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
        let logicals = twin.volumes()[0].queued.clone();
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
        assert_eq!(overlay.phases.len(), Stage::COUNT, "one row per stage");
        let costing = overlay
            .phases
            .iter()
            .find(|p| p.phase == Stage::Costing.name())
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
    use crate::aggregate::{Aggregate, DeviceMedia};
    use crate::aging;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_core::ScoreDeltaBatch;
    use wafl_media::MediaProfile;
    use wafl_types::{Vbn, VolumeId};

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

    /// A near-full aggregate: one 2 + 1 group of `device_blocks` per
    /// device under one volume of `vol_aas` virtual AAs holding `logical`
    /// blocks.
    struct NearFull {
        device_blocks: u64,
        vol_aas: u64,
        logical: u64,
    }

    /// ~95 % of a 262,144-block group.
    const LARGE: NearFull = NearFull {
        device_blocks: 32 * 4096,
        vol_aas: 8,
        logical: 250_000,
    };

    /// ~95 % of a 131,072-block group, where the heap ranks only 16 AAs
    /// and one CP's rounds can drain every one of them.
    const SMALL: NearFull = NearFull {
        device_blocks: 16 * 4096,
        vol_aas: 4,
        logical: 124_000,
    };

    /// Random overwrites of a volume that fills `at`, one free-log page
    /// per CP: every few CPs the allocator runs dry and the log is
    /// force-drained. After every CP, what entered the log and did not
    /// stay was reported applied — a CP that pulls the log forward and
    /// then runs its budgeted pass counts every free once — and, on SSDs
    /// under `trim_on_free` (`ssd_trim`), sent to the FTL as a TRIM.
    /// Returns the number of CPs that force-drained.
    fn churn_under_pressure(at: NearFull, raid_aware_cache: bool, ssd_trim: bool) -> u32 {
        let NearFull {
            device_blocks,
            vol_aas,
            logical,
        } = at;
        let mut a = Aggregate::new(
            AggregateConfig {
                batched_frees: true,
                free_pages_per_cp: 1,
                raid_aware_cache,
                trim_on_free: ssd_trim,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks,
                    profile: if ssd_trim {
                        MediaProfile::ssd()
                    } else {
                        MediaProfile::hdd()
                    },
                })
            },
            &[(
                FlexVolConfig {
                    size_blocks: vol_aas * 32768,
                    aa_cache: true,
                    aa_blocks: None,
                },
                logical,
            )],
            8,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let trims = |a: &Aggregate| -> u64 {
            let media = a.groups.iter().flat_map(|g| &g.media);
            media
                .map(|m| match m {
                    DeviceMedia::Ssd(ftl) => ftl.stats().trims,
                    _ => 0,
                })
                .sum()
        };
        let mut force_drains = 0;
        for cp in 0..35 {
            for _ in 0..4096 {
                a.client_overwrite(VolumeId(0), rng.random_range(0..logical))
                    .unwrap();
            }
            let (before, trimmed) = (a.free_log().pending(), trims(&a));
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
            if ssd_trim {
                assert_eq!(trims(&a) - trimmed, s.delayed_frees_applied, "cp {cp}");
            }
            // More pages than the budget means the log was force-drained.
            force_drains += (s.delayed_free_pages > 1) as u32;
            // Every cache ranks each AA but the active one, at its score.
            assert_eq!(crate::iron::check(&a).unwrap().stale_scores, 0, "cp {cp}");
        }
        force_drains
    }

    /// Without the RAID-aware cache the re-plan scores AAs from the
    /// bitmap, so it finds the blocks a force-drain has just freed.
    #[test]
    fn force_drained_frees_are_counted_with_the_budgeted_ones() {
        assert!(
            churn_under_pressure(LARGE, false, false) > 0,
            "the run must force-drain"
        );
    }

    /// A max-heap ranks by its own score array, which the force-drain
    /// has to update: otherwise the re-plan sees only score-0 AAs and
    /// the CP fails with the freed blocks sitting in the bitmap.
    #[test]
    fn force_drain_reaches_a_heap_cached_group() {
        assert!(
            churn_under_pressure(LARGE, true, false) > 0,
            "the run must force-drain"
        );
    }

    /// On the small geometry one CP's rounds can drain every AA the heap
    /// ranks. A force-drain frees blocks into those AAs, so it runs
    /// before round 0, with the heap ranking every AA but the active one:
    /// no round needs an AA that an earlier round drained ranked again.
    #[test]
    fn shortfall_retry_ranks_the_aas_earlier_rounds_drained() {
        assert!(
            churn_under_pressure(SMALL, true, false) > 0,
            "the run must force-drain"
        );
    }

    /// Under `trim_on_free` every applied free reaches its SSD's FTL as a
    /// TRIM, the force-drained ones as much as the budgeted ones: a free
    /// the FTL never hears about is still copied by its garbage collector.
    #[test]
    fn force_drained_frees_are_trimmed() {
        assert!(
            churn_under_pressure(LARGE, true, true) > 0,
            "the run must force-drain"
        );
    }

    /// A batch of frees the bitmap refuses (here for a double free in
    /// its middle) changes nothing anywhere: the bitmap, the group's
    /// score deltas and, under `trim_on_free`, the FTL's maps and TRIM
    /// count stay as they were. The same holds for a volume's flush.
    #[test]
    fn refused_frees_book_and_trim_nothing() {
        let mut a = Aggregate::new(
            AggregateConfig {
                trim_on_free: true,
                ..AggregateConfig::single_group(RaidGroupSpec {
                    data_devices: 2,
                    parity_devices: 1,
                    device_blocks: 8 * 4096,
                    profile: MediaProfile::ssd(),
                })
            },
            &[(FlexVolConfig::default(), 20_000)],
            1,
        )
        .unwrap();
        aging::fill_volume(&mut a, VolumeId(0), 4096).unwrap();
        let space = a.bitmap.space_len();
        let (live, free): (Vec<Vbn>, Vec<Vbn>) = (0..space)
            .map(Vbn)
            .partition(|&v| !a.bitmap.is_free(v).unwrap());
        let mut batch: Vec<Vbn> = live.iter().step_by(97).copied().collect();
        batch.insert(batch.len() / 2, free[0]);
        let ftl = |a: &Aggregate| {
            let g = &a.groups[0];
            let lpn = |v: &Vbn| g.geometry.vbn_to_loc(*v).unwrap();
            let state = |m: &DeviceMedia, d| match m {
                DeviceMedia::Ssd(f) => {
                    let mapped: Vec<bool> = batch
                        .iter()
                        .filter(|v| lpn(v).device.index() == d)
                        .map(|v| f.is_mapped(lpn(v).dbn.get() as u32))
                        .collect();
                    (f.stats().trims, f.live_pages(), mapped)
                }
                _ => unreachable!("an SSD group"),
            };
            g.media
                .iter()
                .enumerate()
                .map(|(d, m)| state(m, d))
                .collect::<Vec<_>>()
        };
        let (ftl_before, deltas_before) = (ftl(&a), a.groups[0].batch.clone());
        let pages_before = a.bitmap.unit_free_counts().to_vec();
        assert!(a.free_now(&batch).is_err());
        assert_eq!(ftl(&a), ftl_before);
        let drain = |b: &mut ScoreDeltaBatch| b.drain().collect::<Vec<_>>();
        assert_eq!(
            drain(&mut a.groups[0].batch),
            drain(&mut deltas_before.clone())
        );
        assert_eq!(a.bitmap.unit_free_counts(), &pages_before[..]);
        assert!(live.iter().all(|&v| !a.bitmap.is_free(v).unwrap()));
        // A volume's flush: a vvbn freed twice in one batch.
        let vol = &mut a.vols[0];
        let vvbn = (0..vol.bitmap.space_len())
            .map(Vbn)
            .find(|&v| !vol.bitmap.is_free(v).unwrap())
            .unwrap();
        vol.delayed_vvbn_frees = vec![vvbn, vvbn];
        let vol_deltas = vol.batch.touched_aas();
        let vol_free = vol.bitmap.free_blocks();
        assert!(vol.flush_delayed_frees().is_err());
        assert_eq!(vol.batch.touched_aas(), vol_deltas);
        assert_eq!(vol.bitmap.free_blocks(), vol_free);
        assert!(!vol.bitmap.is_free(vvbn).unwrap());
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
