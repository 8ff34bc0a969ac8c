//! Online scrub & quarantine: continuous integrity verification of the
//! free-space metadata, with a per-aggregate health state machine and
//! allocator avoidance of suspect regions.
//!
//! The mount/Iron stack (§3.4) catches damage *at remount*: scribbled
//! TopAA blocks degrade to cold scans, and `iron::check` audits the whole
//! aggregate when someone asks. Nothing catches a memory scribble that
//! lands *while the aggregate is serving traffic* — a flipped summary
//! counter silently misdirects the allocator toward full regions (or
//! double-allocates, if the counter claims free space that is not there)
//! until the next remount.
//!
//! This module closes that gap with an **incremental scrubber** wired
//! into the CP engine: every consistency point, a budget of
//! [`AggregateConfig::scrub_pages_per_cp`](crate::AggregateConfig)
//! verification units is checked against popcount ground truth. A unit
//! is one structure's own audit, as [`crate::iron::check`] runs it: a
//! bitmap page's ([`wafl_bitmap::Bitmap::page_summary_divergences`]), a
//! max-heap's or an HBPS's. On a mismatch:
//!
//! 1. the affected scope is **quarantined**: the allocator skips
//!    quarantined AAs entirely and bypasses quarantined cache structures
//!    (falling back to a popcount-guided sweep), so no write ever lands
//!    on free-space metadata that is known to be lying;
//! 2. a **repair ticket** is scheduled, reusing the structure-scoped
//!    Iron machinery ([`wafl_bitmap::Bitmap::rebuild_page_summary`], cache
//!    rebuilds) with capped exponential backoff measured in CP counts
//!    ([`RetryPolicy::backoff_cps`]);
//! 3. the per-aggregate **health state machine** advances:
//!    `Healthy → Degraded(n) → ReadOnly`, with hysteresis on the way
//!    back — the aggregate returns to `Healthy` only after
//!    [`ScrubState::hysteresis_cps`] consecutive fault-free scrub steps.
//!    `ReadOnly` (entered when a repair exhausts its retry budget, e.g.
//!    a persistently unreadable metafile) rejects new client mutations
//!    while still running CPs, so repairs keep being attempted.
//!
//! Verification always popcounts raw bits ([`wafl_bitmap::Bitmap::
//! free_count_range_popcount`]) rather than trusting the summary-
//! accelerated paths — the summaries are exactly the state under
//! suspicion.
//!
//! See `docs/recovery.md` ("Runtime scrub & quarantine") for the state
//! diagram, the escalation table, and seed-reproduction instructions for
//! the runtime torture suite.

use crate::aggregate::{Aggregate, GroupCache};
use crate::iron;
use std::collections::BTreeSet;
use std::fmt;
use wafl_core::Hbps;
use wafl_faults::{FaultSession, ReadOutcome, RuntimeTarget, StructureId};
use wafl_obs::trace::TraceData;
use wafl_types::{AaId, AaScore, RetryPolicy, Vbn, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK};

/// Aggregate health as driven by the runtime scrubber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// No quarantined state and no pending repairs.
    Healthy,
    /// `n` structures/regions are quarantined or awaiting repair; the
    /// allocator routes around them and traffic continues.
    Degraded(u32),
    /// A repair exhausted its retry budget (persistent metafile damage):
    /// new client mutations are rejected until repairs succeed and the
    /// hysteresis window passes.
    ReadOnly,
}

impl HealthState {
    /// Numeric encoding for the `health.state` gauge: 0 / 1 / 2.
    pub fn as_gauge(self) -> f64 {
        match self {
            HealthState::Healthy => 0.0,
            HealthState::Degraded(_) => 1.0,
            HealthState::ReadOnly => 2.0,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthState::Healthy => write!(f, "healthy"),
            HealthState::Degraded(n) => write!(f, "degraded({n})"),
            HealthState::ReadOnly => write!(f, "read-only"),
        }
    }
}

/// One verifiable unit of derived free-space state. The scrub cursor
/// enumerates these in a fixed order: group caches, aggregate bitmap
/// pages, then per volume its cache followed by its bitmap pages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ScrubTarget {
    /// One per-page summary counter of the aggregate bitmap (plus any
    /// per-AA counters whose tiling intersects the page).
    AggPage(usize),
    /// A RAID group's in-memory TopAA cache (max-heap or HBPS audit).
    GroupCache(usize),
    /// A FlexVol's HBPS (its audit), or its absence when configured.
    VolCache(usize),
    /// One per-page summary counter of a volume bitmap (plus intersecting
    /// per-AA counters).
    VolPage(usize, usize),
}

/// A scheduled structure-scoped repair, produced by a failed verify.
#[derive(Clone, Copy, Debug)]
struct RepairTicket {
    target: ScrubTarget,
    /// Deferred attempts consumed so far (each inline attempt may itself
    /// retry reads within [`RetryPolicy::max_retries`]).
    attempts: u32,
    /// CP count before which this ticket is not processed (capped
    /// exponential backoff).
    not_before_cp: u64,
}

/// Runtime scrubber state, owned by the [`Aggregate`]. Volatile: a crash
/// loses the cursor, tickets, and health (remount re-derives health from
/// its own degradation events via [`refresh_health`]).
#[derive(Debug)]
pub struct ScrubState {
    /// Verification units checked per CP (0 disables the scrubber).
    pages_per_cp: u64,
    /// Next unit index (modulo the current unit count).
    cursor: u64,
    /// Read-retry budget and deferred backoff schedule for repairs.
    policy: RetryPolicy,
    /// Consecutive fault-free scrub steps required to return to
    /// [`HealthState::Healthy`].
    hysteresis_cps: u64,
    tickets: Vec<RepairTicket>,
    health: HealthState,
    clean_cps: u64,
    read_only_reason: Option<String>,
}

impl ScrubState {
    /// Fresh state with the given per-CP verification budget.
    pub(crate) fn new(pages_per_cp: u64) -> ScrubState {
        ScrubState {
            pages_per_cp,
            cursor: 0,
            policy: RetryPolicy::default(),
            hysteresis_cps: 2,
            tickets: Vec::new(),
            health: HealthState::Healthy,
            clean_cps: 0,
            read_only_reason: None,
        }
    }

    /// Current health.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Why the aggregate is read-only, if it is.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.read_only_reason.as_deref()
    }

    /// Replace the repair retry/backoff policy.
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Whether the scrubber runs at CP boundaries.
    pub fn enabled(&self) -> bool {
        self.pages_per_cp > 0
    }

    /// Drop everything a power loss would: cursor, tickets, hysteresis,
    /// health. The quarantine flags live on the groups/volumes and are
    /// cleared by [`crate::mount::crash`] alongside the caches.
    pub(crate) fn reset_volatile(&mut self) {
        self.cursor = 0;
        self.tickets.clear();
        self.clean_cps = 0;
        self.health = HealthState::Healthy;
        self.read_only_reason = None;
    }
}

/// Public snapshot of the scrubber (CLI `--check`, harness assertions).
#[derive(Clone, Debug)]
pub struct ScrubStatus {
    /// Current health state.
    pub health: HealthState,
    /// Repair tickets awaiting processing.
    pub pending_repairs: usize,
    /// Quarantined AAs across all groups and volumes.
    pub quarantined_aas: u64,
    /// Cache structures (groups + volumes) under structure quarantine.
    pub quarantined_structures: u64,
    /// Consecutive fault-free scrub steps (hysteresis progress).
    pub clean_cps: u64,
    /// Why the aggregate is read-only, if it is.
    pub read_only_reason: Option<String>,
    /// Verification units in the current enumeration.
    pub total_units: u64,
}

/// Verification units currently enumerable: one per group cache, one per
/// aggregate bitmap page, and per volume one cache unit plus its bitmap
/// pages. Recomputed every step so growth (`add_raid_group`) is picked up.
pub(crate) fn total_units(agg: &Aggregate) -> u64 {
    let mut total = agg.groups.len() as u64 + agg.bitmap.page_count() as u64;
    for v in &agg.vols {
        total += 1 + v.bitmap().page_count() as u64;
    }
    total
}

/// The unit at enumeration index `idx` (callers reduce modulo
/// [`total_units`] first).
fn target_at(agg: &Aggregate, mut idx: u64) -> ScrubTarget {
    let groups = agg.groups.len() as u64;
    if idx < groups {
        return ScrubTarget::GroupCache(idx as usize);
    }
    idx -= groups;
    let agg_pages = agg.bitmap.page_count() as u64;
    if idx < agg_pages {
        return ScrubTarget::AggPage(idx as usize);
    }
    idx -= agg_pages;
    for (v, vol) in agg.vols.iter().enumerate() {
        if idx == 0 {
            return ScrubTarget::VolCache(v);
        }
        idx -= 1;
        let pages = vol.bitmap().page_count() as u64;
        if idx < pages {
            return ScrubTarget::VolPage(v, idx as usize);
        }
        idx -= pages;
    }
    // Unreachable when idx < total_units(agg); fall back defensively.
    ScrubTarget::AggPage(0)
}

/// The persisted structure a scrub read of `target` touches — what the
/// fault injector's read-error schedule keys on.
fn structure_of(agg: &Aggregate, target: ScrubTarget) -> StructureId {
    match target {
        ScrubTarget::GroupCache(g) => StructureId::Group(g),
        ScrubTarget::AggPage(p) => {
            let start = Vbn(p as u64 * BITS_PER_BITMAP_BLOCK);
            let g = agg
                .groups
                .iter()
                .position(|g| g.geometry.contains(start))
                .unwrap_or(0);
            StructureId::Group(g)
        }
        ScrubTarget::VolCache(v) | ScrubTarget::VolPage(v, _) => StructureId::Volume(v),
    }
}

/// Physical AAs whose tiling intersects aggregate bitmap page `p`, as
/// `(group index, AA)` pairs. A page can span a group boundary.
fn agg_page_aas(agg: &Aggregate, p: usize) -> Vec<(usize, AaId)> {
    let page_start = p as u64 * BITS_PER_BITMAP_BLOCK;
    let page_end = (page_start + BITS_PER_BITMAP_BLOCK).min(agg.bitmap.space_len());
    let mut out = Vec::new();
    if page_start >= page_end {
        return out;
    }
    for (gi, g) in agg.groups.iter().enumerate() {
        let base = g.geometry.base_vbn.get();
        let end = g.geometry.end_vbn().get();
        let s = page_start.max(base);
        let e = page_end.min(end);
        if s >= e {
            continue;
        }
        let (Ok(first), Ok(last)) = (
            g.topology.aa_of_vbn(Vbn(s)),
            g.topology.aa_of_vbn(Vbn(e - 1)),
        ) else {
            continue;
        };
        for aa in first.get()..=last.get() {
            out.push((gi, AaId(aa)));
        }
    }
    out
}

/// Virtual AAs whose tiling intersects volume `v`'s bitmap page `p`.
fn vol_page_aas(agg: &Aggregate, v: usize, p: usize) -> Vec<AaId> {
    let Some(vol) = agg.vols.get(v) else {
        return Vec::new();
    };
    let page_start = p as u64 * BITS_PER_BITMAP_BLOCK;
    let page_end = (page_start + BITS_PER_BITMAP_BLOCK).min(vol.bitmap().space_len());
    if page_start >= page_end {
        return Vec::new();
    }
    let (Ok(first), Ok(last)) = (
        vol.topology().aa_of_vbn(Vbn(page_start)),
        vol.topology().aa_of_vbn(Vbn(page_end - 1)),
    ) else {
        return Vec::new();
    };
    (first.get()..=last.get()).map(AaId).collect()
}

/// Divergences in one verification unit; 0 = clean. Each unit is one
/// structure's own audit against popcount ground truth — never the
/// summary-accelerated paths — the same audits [`crate::iron::check`]
/// runs over the whole aggregate.
fn verify(agg: &Aggregate, target: ScrubTarget) -> u64 {
    match target {
        ScrubTarget::AggPage(p) => agg.bitmap.page_summary_divergences(p),
        ScrubTarget::VolPage(v, p) => agg
            .vols
            .get(v)
            .map_or(0, |vol| vol.bitmap().page_summary_divergences(p)),
        ScrubTarget::GroupCache(gi) => agg
            .groups
            .get(gi)
            .map_or(0, |g| iron::group_cache_divergences(g, &agg.bitmap)),
        // A configured cache that is gone counts as one divergence.
        ScrubTarget::VolCache(v) => agg.vols.get(v).map_or(0, |vol| {
            iron::vol_cache_divergences(vol)
                + u64::from(vol.config().aa_cache && vol.cache().is_none())
        }),
    }
}

/// Quarantine the scope of a failed unit so allocation avoids it.
/// Returns the number of AAs newly quarantined (structure flags count 0).
///
/// `diverged` is the evidence gate for the page arms: a unit the scrubber
/// could not *read* is unknown, not known-bad, and a bitmap page's AA
/// scope is large (device-major layout puts half a device column — half
/// the group's AAs — under one page). Quarantining that scope on a mere
/// read failure lets a burst of transient IO errors fence off every AA
/// and fail CPs with free space on hand, so AAs are quarantined only
/// when a popcount comparison proved the counters wrong. Cache
/// structures quarantine on any fault either way — their fallback is the
/// popcount-guided sweep, which keeps serving writes.
fn quarantine(agg: &mut Aggregate, target: ScrubTarget, diverged: bool) -> u64 {
    match target {
        ScrubTarget::GroupCache(gi) => {
            if let Some(g) = agg.groups.get_mut(gi) {
                g.cache_quarantined = true;
            }
            0
        }
        ScrubTarget::VolCache(v) => {
            if let Some(vol) = agg.vols.get_mut(v) {
                vol.cache_quarantined = true;
            }
            0
        }
        ScrubTarget::AggPage(_) | ScrubTarget::VolPage(..) if !diverged => 0,
        ScrubTarget::AggPage(p) => {
            let mut n = 0u64;
            for (gi, aa) in agg_page_aas(agg, p) {
                if agg.groups[gi].quarantined_aas.insert(aa) {
                    n += 1;
                }
            }
            n
        }
        ScrubTarget::VolPage(v, p) => {
            let aas = vol_page_aas(agg, v, p);
            let mut n = 0u64;
            if let Some(vol) = agg.vols.get_mut(v) {
                for aa in aas {
                    if vol.quarantined_aas.insert(aa) {
                        // The quarantined AA may be the cursor's: the
                        // allocator must not resume into (or trust) it.
                        if vol.drain_cursor.map(|(c, _)| c) == Some(aa) {
                            vol.invalidate_drain_cursor();
                        }
                        n += 1;
                    }
                }
            }
            n
        }
    }
}

/// Lift the quarantine of a repaired unit, keeping anything still covered
/// by another pending ticket. Returns AAs + structure flags released.
fn release(agg: &mut Aggregate, target: ScrubTarget, remaining: &[RepairTicket]) -> u64 {
    match target {
        ScrubTarget::GroupCache(gi) => {
            let still = remaining
                .iter()
                .any(|t| t.target == ScrubTarget::GroupCache(gi));
            match agg.groups.get_mut(gi) {
                Some(g) if !still && g.cache_quarantined => {
                    g.cache_quarantined = false;
                    1
                }
                _ => 0,
            }
        }
        ScrubTarget::VolCache(v) => {
            let still = remaining
                .iter()
                .any(|t| t.target == ScrubTarget::VolCache(v));
            match agg.vols.get_mut(v) {
                Some(vol) if !still && vol.cache_quarantined => {
                    vol.cache_quarantined = false;
                    1
                }
                _ => 0,
            }
        }
        ScrubTarget::AggPage(p) => {
            let keep: BTreeSet<(usize, AaId)> = remaining
                .iter()
                .filter_map(|t| match t.target {
                    ScrubTarget::AggPage(q) => Some(agg_page_aas(agg, q)),
                    _ => None,
                })
                .flatten()
                .collect();
            let scope = agg_page_aas(agg, p);
            let mut released = 0u64;
            for (gi, aa) in scope {
                if keep.contains(&(gi, aa)) {
                    continue;
                }
                if agg.groups[gi].quarantined_aas.remove(&aa) {
                    released += 1;
                }
            }
            released
        }
        ScrubTarget::VolPage(v, p) => {
            let keep: BTreeSet<AaId> = remaining
                .iter()
                .filter_map(|t| match t.target {
                    ScrubTarget::VolPage(w, q) if w == v => Some(vol_page_aas(agg, w, q)),
                    _ => None,
                })
                .flatten()
                .collect();
            let scope = vol_page_aas(agg, v, p);
            let mut released = 0u64;
            if let Some(vol) = agg.vols.get_mut(v) {
                for aa in scope {
                    if keep.contains(&aa) {
                        continue;
                    }
                    if vol.quarantined_aas.remove(&aa) {
                        released += 1;
                    }
                }
            }
            released
        }
    }
}

/// Structure-scoped repair: recompute exactly the damaged unit from the
/// authoritative raw bits (the Iron machinery, scoped down from the
/// whole-aggregate [`crate::iron::repair`]). Returns counters rewritten
/// (bitmap-page repairs; cache rebuilds return 0 and are counted as
/// repairs by the caller).
fn repair(agg: &mut Aggregate, target: ScrubTarget) -> WaflResult<u64> {
    match target {
        ScrubTarget::AggPage(p) => Ok(agg.bitmap.rebuild_page_summary(p)),
        ScrubTarget::VolPage(v, p) => Ok(agg
            .vols
            .get_mut(v)
            .map(|vol| vol.bitmap.rebuild_page_summary(p))
            .unwrap_or(0)),
        ScrubTarget::GroupCache(gi) => match agg.groups.get_mut(gi) {
            Some(g) if agg.cfg.raid_aware_cache => g.rebuild_cache(&agg.bitmap).map(|()| 0),
            _ => Ok(0),
        },
        ScrubTarget::VolCache(v) => match agg.vols.get_mut(v) {
            Some(vol) if vol.config().aa_cache => vol.rebuild_cache().map(|()| 0),
            _ => Ok(0),
        },
    }
}

/// One gated metafile read for the scrubber, retried inline within the
/// policy's budget. With no fault session every read succeeds.
fn gated_read(
    faults: &mut Option<&mut FaultSession<'_>>,
    target: StructureId,
    policy: RetryPolicy,
) -> WaflResult<()> {
    let Some(session) = faults.as_deref_mut() else {
        return Ok(());
    };
    policy
        .run(|| match session.on_scrub_read(target) {
            ReadOutcome::Ok => Ok(()),
            ReadOutcome::Transient => Err(WaflError::TransientIo {
                reason: format!("scrub read failed for {target:?}"),
            }),
            ReadOutcome::Persistent => Err(WaflError::CorruptMetafile {
                reason: format!("metafile persistently unreadable for {target:?}"),
            }),
        })
        .0
}

/// Quarantined state not covered by any pending ticket, plus the tickets
/// themselves — the "pending" count the health state machine keys on.
fn pending_count(agg: &Aggregate) -> u32 {
    let tickets = &agg.scrub.tickets;
    let mut pending = tickets.len() as u32;
    let any_agg_page = tickets
        .iter()
        .any(|t| matches!(t.target, ScrubTarget::AggPage(_)));
    for (gi, g) in agg.groups.iter().enumerate() {
        if g.cache_quarantined
            && !tickets
                .iter()
                .any(|t| t.target == ScrubTarget::GroupCache(gi))
        {
            pending += 1;
        }
        // Coarse: quarantined AAs are normally ticket-covered; unticketed
        // ones (should not happen) still hold the aggregate out of
        // Healthy, which is the safe direction.
        if !g.quarantined_aas.is_empty() && !any_agg_page {
            pending += 1;
        }
    }
    for (v, vol) in agg.vols.iter().enumerate() {
        if vol.cache_quarantined && !tickets.iter().any(|t| t.target == ScrubTarget::VolCache(v)) {
            pending += 1;
        }
        let vol_page_ticketed = tickets
            .iter()
            .any(|t| matches!(t.target, ScrubTarget::VolPage(w, _) if w == v));
        if !vol.quarantined_aas.is_empty() && !vol_page_ticketed {
            pending += 1;
        }
    }
    pending
}

/// Export the health gauges from the current state.
fn export_gauges(agg: &Aggregate) {
    let status = status(agg);
    agg.obs.gauge_health_state.set(status.health.as_gauge());
    agg.obs
        .gauge_quarantined_aas
        .set(status.quarantined_aas as f64);
    agg.obs
        .gauge_pending_repairs
        .set(status.pending_repairs as f64);
}

/// Snapshot the scrubber for callers outside the CP engine.
pub(crate) fn status(agg: &Aggregate) -> ScrubStatus {
    let mut quarantined_aas = 0u64;
    let mut quarantined_structures = 0u64;
    for g in &agg.groups {
        quarantined_aas += g.quarantined_aas.len() as u64;
        quarantined_structures += u64::from(g.cache_quarantined);
    }
    for v in &agg.vols {
        quarantined_aas += v.quarantined_aas.len() as u64;
        quarantined_structures += u64::from(v.cache_quarantined);
    }
    ScrubStatus {
        health: agg.scrub.health,
        pending_repairs: agg.scrub.tickets.len(),
        quarantined_aas,
        quarantined_structures,
        clean_cps: agg.scrub.clean_cps,
        read_only_reason: agg.scrub.read_only_reason.clone(),
        total_units: total_units(agg),
    }
}

/// Recompute health directly from the quarantine/ticket state, without
/// hysteresis — used at mount (degradations quarantine structures before
/// any scrub step runs) and after a full Iron repair.
pub(crate) fn refresh_health(agg: &mut Aggregate) {
    let before = agg.scrub.health;
    let pending = pending_count(agg);
    if pending == 0 {
        agg.scrub.health = HealthState::Healthy;
        agg.scrub.read_only_reason = None;
    } else if agg.scrub.health != HealthState::ReadOnly {
        agg.scrub.health = HealthState::Degraded(pending);
    }
    agg.scrub.clean_cps = 0;
    trace_health_change(agg, before);
    export_gauges(agg);
}

/// Journal a health transition if the state machine moved (the flight
/// recorder's `health.state` instants; `Degraded(n)` collapses to its
/// gauge encoding — different `n` is not a transition).
fn trace_health_change(agg: &Aggregate, before: HealthState) {
    let (from, to) = (before.as_gauge() as u8, agg.scrub.health.as_gauge() as u8);
    if from != to {
        agg.obs
            .trace(agg.cp_count, TraceData::HealthChange { from, to });
    }
}

/// Clear every quarantine and ticket (a full Iron repair rebuilt all the
/// derived state, so nothing remains suspect) and return to Healthy.
pub(crate) fn clear_all(agg: &mut Aggregate) {
    for g in &mut agg.groups {
        g.quarantined_aas.clear();
        g.cache_quarantined = false;
    }
    for v in &mut agg.vols {
        v.quarantined_aas.clear();
        v.cache_quarantined = false;
    }
    agg.scrub.tickets.clear();
    agg.scrub.clean_cps = 0;
    agg.scrub.health = HealthState::Healthy;
    agg.scrub.read_only_reason = None;
    export_gauges(agg);
}

/// The HBPS of volume `vol` (modulo the volume count), if it has a cache.
fn vol_hbps(agg: &mut Aggregate, vol: usize) -> Option<&mut Hbps> {
    let n = agg.vols.len().max(1);
    agg.vols
        .get_mut(vol % n)?
        .cache
        .as_mut()
        .map(|c| c.hbps_mut())
}

/// Fire every runtime scribble due at the current CP count: in-memory
/// corruption of live summary counters / cached scores, applied while
/// the aggregate serves traffic. Returns the number that actually changed
/// state (a scribble aimed at an absent structure hits nothing).
pub fn apply_due_runtime_scribbles(agg: &mut Aggregate, session: &mut FaultSession<'_>) -> u64 {
    let mut applied = 0u64;
    for fault in session.take_due_runtime_scribbles(agg.cp_count) {
        match fault.target {
            RuntimeTarget::AggSummaryPage { page } => {
                let pages = agg.bitmap.page_count();
                if pages == 0 {
                    continue;
                }
                let p = page % pages;
                let cur = agg.bitmap.page_free_count(p).unwrap_or(0) as u16;
                let xor = ((fault.value_seed >> 16) as u16) | 1;
                agg.bitmap.scribble_page_counter(p, cur ^ xor);
                applied += 1;
            }
            RuntimeTarget::VolSummaryPage { vol, page } => {
                if agg.vols.is_empty() {
                    continue;
                }
                let v = vol % agg.vols.len();
                let pages = agg.vols[v].bitmap.page_count();
                if pages == 0 {
                    continue;
                }
                let p = page % pages;
                let cur = agg.vols[v].bitmap.page_free_count(p).unwrap_or(0) as u16;
                let xor = ((fault.value_seed >> 16) as u16) | 1;
                agg.vols[v].bitmap.scribble_page_counter(p, cur ^ xor);
                applied += 1;
            }
            RuntimeTarget::HbpsBinCount { vol } => {
                let Some(hbps) = vol_hbps(agg, vol) else {
                    continue;
                };
                // A bin count off by a few AAs, in a bin the seed picks.
                let bin = (fault.value_seed % hbps.bin_counts().len() as u64) as usize;
                let off = ((fault.value_seed >> 16) as u32 & 0xF) | 1;
                hbps.scribble_bin_count(bin, hbps.bin_counts()[bin] ^ off);
                applied += 1;
            }
            RuntimeTarget::HbpsListEntry { vol } => {
                let Some(hbps) = vol_hbps(agg, vol) else {
                    continue;
                };
                // A later list entry names the first one's AA, as a torn
                // list update would.
                let Some((first, _)) = hbps.peek_best().filter(|_| hbps.list_len() > 1) else {
                    continue;
                };
                let index = 1 + (fault.value_seed % (hbps.list_len() as u64 - 1)) as usize;
                hbps.scribble_list_entry(index, first);
                applied += 1;
            }
            RuntimeTarget::GroupCacheScore { group } => {
                if agg.groups.is_empty() {
                    continue;
                }
                let gi = group % agg.groups.len();
                if let Some(GroupCache::Heap(cache)) = agg.groups[gi].cache.as_mut() {
                    // Corrupt the best AA's cached score downward (always
                    // within the heap's max clamp, always a real change).
                    if let Some((aa, score)) = cache.best() {
                        if score.get() > 0 {
                            let dec = (fault.value_seed as u32 % score.get()) + 1;
                            let corrupted = AaScore(score.get() - dec);
                            if cache.insert(aa, corrupted).is_ok() {
                                applied += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    applied
}

/// One scrub step, run by the CP engine at the start of every CP (before
/// any allocation of the CP touches the bitmaps):
///
/// 1. process due repair tickets (gated read → repair → re-verify →
///    release, with escalation on failure);
/// 2. scan exactly `pages_per_cp` verification units from the cursor,
///    ticketing every fault; a verified counter divergence additionally
///    quarantines the page's AA scope (an unreadable unit only tickets —
///    see [`quarantine`]);
/// 3. advance the health state machine and export the gauges.
pub(crate) fn run_step(
    agg: &mut Aggregate,
    mut faults: Option<&mut FaultSession<'_>>,
) -> WaflResult<()> {
    let cp = agg.cp_count;
    let policy = agg.scrub.policy;
    let health_before = agg.scrub.health;

    // ---- 1. due repair tickets -------------------------------------
    let mut tickets = std::mem::take(&mut agg.scrub.tickets);
    let mut i = 0;
    while i < tickets.len() {
        if tickets[i].not_before_cp > cp {
            i += 1;
            continue;
        }
        let target = tickets[i].target;
        let sid = structure_of(agg, target);
        let outcome = match gated_read(&mut faults, sid, policy) {
            Ok(()) => {
                repair(agg, target)?;
                if verify(agg, target) == 0 {
                    Ok(())
                } else {
                    Err(WaflError::CorruptMetafile {
                        reason: format!("scrub repair did not converge for {target:?}"),
                    })
                }
            }
            Err(e) => Err(e),
        };
        match outcome {
            Ok(()) => {
                let ticket = tickets.remove(i);
                let released = release(agg, ticket.target, &tickets);
                agg.obs.scrub_released.inc(released);
                agg.obs.scrub_repairs_succeeded.inc(1);
                if released > 0 {
                    agg.obs.trace(cp, TraceData::Release { units: released });
                }
                // `i` stays: the next ticket shifted into this slot.
            }
            Err(e) => {
                tickets[i].attempts += 1;
                tickets[i].not_before_cp = cp + policy.backoff_cps(tickets[i].attempts);
                if tickets[i].attempts > policy.max_retries
                    && agg.scrub.health != HealthState::ReadOnly
                {
                    agg.scrub.health = HealthState::ReadOnly;
                    agg.scrub.read_only_reason = Some(e.to_string());
                }
                i += 1;
            }
        }
    }
    agg.scrub.tickets = tickets;

    // ---- 2. budgeted verification scan -----------------------------
    let total = total_units(agg);
    if total > 0 {
        for _ in 0..agg.scrub.pages_per_cp {
            let idx = agg.scrub.cursor % total;
            agg.scrub.cursor = (idx + 1) % total;
            agg.obs.scrub_pages_scanned.inc(1);
            let target = target_at(agg, idx);
            // Already ticketed: the repair path owns it. The unit still
            // consumes budget, keeping the per-CP cost exact.
            if agg.scrub.tickets.iter().any(|t| t.target == target) {
                continue;
            }
            let sid = structure_of(agg, target);
            let read_ok = match faults.as_deref_mut() {
                Some(session) => session.on_scrub_read(sid) == ReadOutcome::Ok,
                None => true,
            };
            let diverged = read_ok && verify(agg, target) > 0;
            let faulty = !read_ok || diverged;
            if faulty {
                agg.obs.scrub_faults_detected.inc(1);
                let quarantined = quarantine(agg, target, diverged);
                agg.obs.scrub_aas_quarantined.inc(quarantined);
                agg.obs.trace(
                    cp,
                    TraceData::Quarantine {
                        units: quarantined.max(1), // structure quarantines fence 1 unit
                    },
                );
                agg.scrub.tickets.push(RepairTicket {
                    target,
                    attempts: 0,
                    not_before_cp: cp + policy.backoff_cps(0),
                });
            } else {
                // A clean pass over a mount-quarantined structure (no
                // ticket — mount degradations quarantine directly) lifts
                // the quarantine: the cold-rebuilt cache verified fine.
                match target {
                    ScrubTarget::GroupCache(gi) if agg.groups[gi].cache_quarantined => {
                        agg.groups[gi].cache_quarantined = false;
                        agg.obs.scrub_released.inc(1);
                        agg.obs.trace(cp, TraceData::Release { units: 1 });
                    }
                    ScrubTarget::VolCache(v) if agg.vols[v].cache_quarantined => {
                        agg.vols[v].cache_quarantined = false;
                        agg.obs.scrub_released.inc(1);
                        agg.obs.trace(cp, TraceData::Release { units: 1 });
                    }
                    _ => {}
                }
            }
        }
    }

    // ---- 3. health state machine + gauges --------------------------
    let pending = pending_count(agg);
    if pending == 0 {
        agg.scrub.clean_cps += 1;
        if agg.scrub.clean_cps >= agg.scrub.hysteresis_cps {
            agg.scrub.health = HealthState::Healthy;
            agg.scrub.read_only_reason = None;
        }
    } else {
        agg.scrub.clean_cps = 0;
        if agg.scrub.health != HealthState::ReadOnly {
            agg.scrub.health = HealthState::Degraded(pending);
        }
    }
    trace_health_change(agg, health_before);
    export_gauges(agg);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AggregateConfig, FlexVolConfig, RaidGroupSpec};
    use wafl_media::MediaProfile;

    fn agg(scrub_budget: u64) -> Aggregate {
        Aggregate::new(
            AggregateConfig {
                scrub_pages_per_cp: scrub_budget,
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
            12,
        )
        .unwrap()
    }

    #[test]
    fn unit_enumeration_covers_everything_once() {
        let a = agg(4);
        let total = total_units(&a);
        // 1 group cache + 8 agg pages (4*16*4096 / 32768) + 1 vol cache
        // + 8 vol pages.
        assert_eq!(total, 1 + 8 + 1 + 8);
        let mut groups = 0;
        let mut agg_pages = 0;
        let mut vol_caches = 0;
        let mut vol_pages = 0;
        for idx in 0..total {
            match target_at(&a, idx) {
                ScrubTarget::GroupCache(_) => groups += 1,
                ScrubTarget::AggPage(_) => agg_pages += 1,
                ScrubTarget::VolCache(_) => vol_caches += 1,
                ScrubTarget::VolPage(..) => vol_pages += 1,
            }
        }
        assert_eq!((groups, agg_pages, vol_caches, vol_pages), (1, 8, 1, 8));
    }

    #[test]
    fn clean_aggregate_verifies_clean() {
        let a = agg(4);
        for idx in 0..total_units(&a) {
            let t = target_at(&a, idx);
            assert_eq!(verify(&a, t), 0, "unit {t:?} dirty on a fresh aggregate");
        }
    }

    #[test]
    fn scribbled_page_counter_is_detected_quarantined_and_repaired() {
        let mut a = agg(0);
        a.vols[0].bitmap.scribble_page_counter(2, u16::MAX);
        let t = ScrubTarget::VolPage(0, 2);
        assert!(verify(&a, t) > 0);
        let q = quarantine(&mut a, t, true);
        assert!(q > 0, "page quarantine must cover at least one AA");
        assert!(!a.vols[0].quarantined_aas.is_empty());
        let fixed = repair(&mut a, t).unwrap();
        assert!(fixed > 0);
        assert_eq!(verify(&a, t), 0);
        let released = release(&mut a, t, &[]);
        assert_eq!(released, q);
        assert!(a.vols[0].quarantined_aas.is_empty());
    }

    #[test]
    fn health_degrades_on_fault_and_recovers_with_hysteresis() {
        let mut a = agg(64); // budget covers everything each step
        a.bitmap.scribble_page_counter(1, 12_345);
        run_step(&mut a, None).unwrap();
        assert!(matches!(a.scrub.health, HealthState::Degraded(_)));
        assert!(!a.groups[0].quarantined_aas.is_empty());
        // Ticket processes next CP (backoff base 1); then hysteresis.
        a.cp_count += 1;
        run_step(&mut a, None).unwrap();
        assert!(a.groups[0].quarantined_aas.is_empty(), "repair releases");
        assert!(
            matches!(
                a.scrub.health,
                HealthState::Degraded(_) | HealthState::Healthy
            ),
            "one clean step is not enough for Healthy: {:?}",
            a.scrub.health
        );
        a.cp_count += 1;
        run_step(&mut a, None).unwrap();
        a.cp_count += 1;
        run_step(&mut a, None).unwrap();
        assert_eq!(a.scrub.health, HealthState::Healthy);
        assert_eq!(a.bitmap.summary_divergences(), 0);
    }

    #[test]
    fn persistent_scrub_read_error_escalates_to_read_only() {
        use wafl_faults::{FaultPlan, ReadErrorFault};
        let mut a = agg(64);
        a.scrub.set_policy(RetryPolicy {
            max_retries: 1,
            backoff_base_cps: 1,
            backoff_cap_cps: 4,
        });
        a.bitmap.scribble_page_counter(0, 999);
        let plan = FaultPlan {
            scrub_read_errors: vec![ReadErrorFault {
                target: StructureId::Group(0),
                failures: u32::MAX, // persistent
            }],
            ..FaultPlan::none()
        };
        let mut session = FaultSession::new(&plan);
        // Detection: the scan itself hits the read error -> ticket.
        run_step(&mut a, Some(&mut session)).unwrap();
        assert!(matches!(a.scrub.health, HealthState::Degraded(_)));
        // Repair attempts exhaust against the persistent error.
        for _ in 0..8 {
            a.cp_count += 1;
            run_step(&mut a, Some(&mut session)).unwrap();
        }
        assert_eq!(a.scrub.health, HealthState::ReadOnly);
        assert!(a.scrub.read_only_reason().is_some());
        // Every group-0 unit (cache + 8 agg pages) hit the persistent
        // error and ticketed; backoff is capped, nothing panics.
        assert_eq!(a.scrub.tickets.len(), 9);
        for t in &a.scrub.tickets {
            assert!(t.not_before_cp <= a.cp_count + 4);
        }
    }

    #[test]
    fn scan_read_error_tickets_without_aa_quarantine() {
        use wafl_faults::{FaultPlan, ReadErrorFault};
        let mut a = agg(64); // budget covers everything each step
        let plan = FaultPlan {
            scrub_read_errors: vec![ReadErrorFault {
                target: StructureId::Group(0),
                failures: 2, // transient: hits GroupCache(0) then AggPage(0)
            }],
            ..FaultPlan::none()
        };
        let mut session = FaultSession::new(&plan);
        run_step(&mut a, Some(&mut session)).unwrap();
        assert!(matches!(a.scrub.health, HealthState::Degraded(_)));
        assert_eq!(a.scrub.tickets.len(), 2);
        assert!(a.groups[0].cache_quarantined, "cache falls back to sweep");
        assert!(
            a.groups[0].quarantined_aas.is_empty(),
            "a failed read is not divergence evidence: the page's AA \
             scope (half the group) must stay allocatable"
        );
        // Failures exhausted: the next ticket pass re-reads, repairs,
        // and releases everything.
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session)).unwrap();
        assert!(a.scrub.tickets.is_empty());
        assert!(!a.groups[0].cache_quarantined);
    }

    #[test]
    fn scan_budget_is_exact() {
        let mut a = agg(3);
        for step in 1..=6u64 {
            run_step(&mut a, None).unwrap();
            a.cp_count += 1;
            assert_eq!(
                a.obs.registry().counter_value("scrub.pages_scanned"),
                Some(3 * step)
            );
        }
        // 18 units total, 3 per step: full coverage in 6 steps.
        assert_eq!(a.scrub.cursor, 0);
    }

    #[test]
    fn corrupted_heap_score_is_detected_and_rebuilt() {
        use wafl_faults::RuntimeScribbleFault;
        let mut a = agg(64);
        crate::aging::fill_volume(&mut a, wafl_types::VolumeId(0), 4096).unwrap();
        let plan = wafl_faults::FaultPlan {
            runtime_scribbles: vec![RuntimeScribbleFault {
                target: RuntimeTarget::GroupCacheScore { group: 0 },
                at_cp: 0,
                value_seed: 0xDEAD_BEEF,
            }],
            ..wafl_faults::FaultPlan::none()
        };
        let mut session = FaultSession::new(&plan);
        let applied = apply_due_runtime_scribbles(&mut a, &mut session);
        assert_eq!(applied, 1);
        assert!(verify(&a, ScrubTarget::GroupCache(0)) > 0);
        run_step(&mut a, Some(&mut session)).unwrap();
        assert!(a.groups[0].cache_quarantined, "structure quarantined");
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session)).unwrap();
        assert!(!a.groups[0].cache_quarantined, "repair lifts quarantine");
        assert_eq!(verify(&a, ScrubTarget::GroupCache(0)), 0);
    }
}
