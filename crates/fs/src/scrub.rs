//! Online scrub: continuous integrity verification of the free-space
//! metadata, with a per-aggregate health state machine.
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
//! is one structure's own audit, as [`crate::iron::check`] runs it: the
//! summary counters of a bitmap page
//! ([`wafl_bitmap::Bitmap::page_summary_divergences`]), a max-heap's or
//! an HBPS's. Every one of them is derived from the bitmap,
//! the only truth, so:
//!
//! 1. a unit the scan has read and **proved wrong** is repaired and
//!    re-verified in the same step, before the CP allocates
//!    ([`wafl_bitmap::Bitmap::rebuild_page_summary`], cache rebuilds) —
//!    nothing is fenced and health does not move;
//! 2. a unit the scan could **not read** is unknown, not known-bad: it
//!    gets a **repair ticket**, retried with capped exponential backoff
//!    measured in CP counts ([`RetryPolicy::backoff_cps`]). A ticketed
//!    cache structure is fenced meanwhile — the allocator bypasses it
//!    for a popcount-guided sweep — and a ticketed bitmap page fences
//!    nothing. A degraded mount tickets the structures it cold-rebuilt
//!    the same way, and tickets are processed every CP, scan or no scan;
//! 3. the per-aggregate **health state machine** follows the tickets:
//!    `Healthy → Degraded(n) → ReadOnly`, with hysteresis on the way
//!    back — the aggregate returns to `Healthy` only after
//!    [`ScrubState::hysteresis_cps`] consecutive steps with no ticket.
//!    `ReadOnly` (entered when a repair exhausts its retry budget, e.g.
//!    a persistently unreadable metafile) rejects new client mutations
//!    while still running CPs, so repairs keep being attempted.
//!
//! Verification always popcounts raw bits ([`wafl_bitmap::Bitmap::
//! free_count_range_popcount`]) rather than trusting the summary-
//! accelerated paths — the summaries are exactly the state under
//! suspicion.
//!
//! See `docs/recovery.md` ("Runtime scrub") for the state diagram, the
//! escalation table, and seed-reproduction instructions for the runtime
//! torture suite.

use crate::aggregate::{Aggregate, GroupCache};
use crate::iron;
use std::fmt;
use wafl_core::Hbps;
use wafl_faults::{FaultSession, ReadOutcome, RuntimeTarget, StructureId};
use wafl_obs::trace::TraceData;
use wafl_types::{AaScore, RetryPolicy, Vbn, WaflError, WaflResult, BITS_PER_BITMAP_BLOCK};

/// Aggregate health as driven by the runtime scrubber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// No pending repairs.
    Healthy,
    /// `n` repair tickets are pending; the allocator sweeps past the
    /// fenced cache structures among them and traffic continues.
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
    /// The summary counters of one aggregate bitmap page.
    AggPage(usize),
    /// A RAID group's in-memory TopAA cache (max-heap or HBPS audit).
    GroupCache(usize),
    /// A FlexVol's HBPS (its audit), or its absence when configured.
    VolCache(usize),
    /// The summary counters of one volume bitmap page: one per page, or
    /// one per AA of a volume whose AAs are the bitmap's summary unit.
    VolPage(usize, usize),
}

/// A scheduled structure-scoped repair: a unit the scan could not read,
/// or a cache a degraded mount cold-rebuilt. At most one per unit.
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
    /// Verification units checked per CP (0 disables the scan).
    pages_per_cp: u64,
    /// Next unit index (modulo the current unit count).
    cursor: u64,
    /// Read-retry budget and deferred backoff schedule for repairs.
    policy: RetryPolicy,
    /// Consecutive steps without a ticket required to return to
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

    /// Whether a CP boundary has a scrub step to run: the scan is on, or
    /// a ticket or the way back to `Healthy` is still open.
    pub(crate) fn due(&self) -> bool {
        self.pages_per_cp > 0 || !self.tickets.is_empty() || self.health != HealthState::Healthy
    }

    /// Drop everything a power loss would: cursor, tickets, hysteresis,
    /// health. The cache fences live on the groups/volumes and are
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
    /// Cache structures (groups + volumes) the allocator sweeps past.
    pub quarantined_structures: u64,
    /// Consecutive steps without a ticket (hysteresis progress).
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

/// The fence flag of a cache unit. A bitmap page has none: a page that
/// could not be read is not known to be wrong, and fencing its AA scope
/// (half a group's AAs, under device-major layout) on IO noise could
/// fail CPs with free space on hand.
fn fence_flag(agg: &mut Aggregate, target: ScrubTarget) -> Option<&mut bool> {
    match target {
        ScrubTarget::GroupCache(gi) => agg.groups.get_mut(gi).map(|g| &mut g.cache_quarantined),
        ScrubTarget::VolCache(v) => agg.vols.get_mut(v).map(|v| &mut v.cache_quarantined),
        ScrubTarget::AggPage(_) | ScrubTarget::VolPage(..) => None,
    }
}

/// Schedule the repair of `target`, fencing it first if it is a cache
/// structure: the allocator sweeps the bitmap past a fenced cache until
/// the ticket settles. A unit already ticketed keeps its ticket.
pub(crate) fn ticket(agg: &mut Aggregate, target: ScrubTarget) {
    if let Some(fenced) = fence_flag(agg, target) {
        *fenced = true;
    }
    if agg.scrub.tickets.iter().all(|t| t.target != target) {
        agg.scrub.tickets.push(RepairTicket {
            target,
            attempts: 0,
            not_before_cp: agg.cp_count + agg.scrub.policy.backoff_cps(0),
        });
    }
}

/// Lift the fence of a repaired unit. Returns the structures released.
fn release(agg: &mut Aggregate, target: ScrubTarget) -> u64 {
    fence_flag(agg, target).map_or(0, |fenced| u64::from(std::mem::take(fenced)))
}

/// Structure-scoped repair: recompute exactly the damaged unit from the
/// authoritative raw bits (the Iron machinery, scoped down from the
/// whole-aggregate [`crate::iron::repair`]), then re-verify it.
fn repair(agg: &mut Aggregate, target: ScrubTarget) -> WaflResult<()> {
    match target {
        ScrubTarget::AggPage(p) => {
            agg.bitmap.rebuild_page_summary(p);
        }
        ScrubTarget::VolPage(v, p) => {
            if let Some(vol) = agg.vols.get_mut(v) {
                vol.bitmap.rebuild_page_summary(p);
            }
        }
        ScrubTarget::GroupCache(gi) => match agg.groups.get_mut(gi) {
            Some(g) if agg.cfg.raid_aware_cache => g.rebuild_cache(&agg.bitmap)?,
            _ => {}
        },
        ScrubTarget::VolCache(v) => match agg.vols.get_mut(v) {
            Some(vol) if vol.config().aa_cache => vol.rebuild_cache()?,
            _ => {}
        },
    }
    if verify(agg, target) == 0 {
        Ok(())
    } else {
        Err(WaflError::CorruptMetafile {
            reason: format!("scrub repair did not converge for {target:?}"),
        })
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

/// Export the health gauges from the current state.
fn export_gauges(agg: &Aggregate) {
    agg.obs.gauge_health_state.set(agg.scrub.health.as_gauge());
    agg.obs
        .gauge_pending_repairs
        .set(agg.scrub.tickets.len() as f64);
}

/// Snapshot the scrubber for callers outside the CP engine.
pub(crate) fn status(agg: &Aggregate) -> ScrubStatus {
    let fenced = agg.groups.iter().map(|g| g.cache_quarantined);
    let fenced = fenced.chain(agg.vols.iter().map(|v| v.cache_quarantined));
    ScrubStatus {
        health: agg.scrub.health,
        pending_repairs: agg.scrub.tickets.len(),
        quarantined_structures: fenced.map(u64::from).sum(),
        clean_cps: agg.scrub.clean_cps,
        read_only_reason: agg.scrub.read_only_reason.clone(),
        total_units: total_units(agg),
    }
}

/// Recompute health directly from the tickets, without hysteresis — used
/// at mount (degradations ticket structures before any scrub step runs),
/// after the background rebuild and after a full Iron repair.
pub(crate) fn refresh_health(agg: &mut Aggregate) {
    let before = agg.scrub.health;
    let pending = agg.scrub.tickets.len() as u32;
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

/// Settle the tickets of `targets`, whose caches the caller has just
/// rebuilt from the bitmap, lift their fences and refresh health.
pub(crate) fn settle(agg: &mut Aggregate, targets: &[ScrubTarget]) {
    agg.scrub.tickets.retain(|t| !targets.contains(&t.target));
    for &target in targets {
        release(agg, target);
    }
    refresh_health(agg);
}

/// Clear every fence and ticket (a full Iron repair rebuilt all the
/// derived state, so nothing remains suspect) and return to Healthy.
pub(crate) fn clear_all(agg: &mut Aggregate) {
    for g in &mut agg.groups {
        g.cache_quarantined = false;
    }
    for v in &mut agg.vols {
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
                let xor = ((fault.value_seed >> 16) as u16) | 1;
                agg.bitmap.scribble_page_counter(page % pages, xor);
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
                let xor = ((fault.value_seed >> 16) as u16) | 1;
                agg.vols[v].bitmap.scribble_page_counter(page % pages, xor);
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

/// One scrub step, run by the CP engine at the start of every CP that
/// has one ([`ScrubState::due`]), before any allocation of the CP
/// touches the bitmaps:
///
/// 1. process due repair tickets (gated read → repair → re-verify →
///    release, with escalation on failure) — with or without a scan;
/// 2. scan exactly `pages_per_cp` verification units from the cursor. A
///    unit proved wrong is repaired and re-verified on the spot; a unit
///    that could not be read (or whose repair did not converge) is
///    ticketed — see [`ticket`];
/// 3. advance the health state machine and export the gauges.
pub(crate) fn run_step(agg: &mut Aggregate, mut faults: Option<&mut FaultSession<'_>>) {
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
        match gated_read(&mut faults, sid, policy).and_then(|()| repair(agg, target)) {
            Ok(()) => {
                tickets.remove(i);
                let released = release(agg, target);
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
            if read_ok && verify(agg, target) == 0 {
                continue;
            }
            agg.obs.scrub_faults_detected.inc(1);
            // Read and proved wrong: the bits the unit derives from are
            // in memory, so repair it before this CP allocates.
            if read_ok && repair(agg, target).is_ok() {
                agg.obs.scrub_repairs_succeeded.inc(1);
                continue;
            }
            ticket(agg, target);
            agg.obs.trace(cp, TraceData::Quarantine { units: 1 });
        }
    }

    // ---- 3. health state machine + gauges --------------------------
    let pending = agg.scrub.tickets.len() as u32;
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

    /// A counter proved wrong is repaired by the very step whose scan
    /// reads it: the aggregate page at the first step, the volume page
    /// at the fourth (4 units a step). Nothing is ticketed or fenced, and
    /// health never leaves Healthy.
    #[test]
    fn scribbled_page_counters_are_repaired_by_the_step_that_scans_them() {
        let mut a = agg(4);
        a.bitmap.scribble_page_counter(1, 12_345);
        a.vols[0].bitmap.scribble_page_counter(2, u16::MAX);
        let (agg_page, vol_page) = (ScrubTarget::AggPage(1), ScrubTarget::VolPage(0, 2));
        let index = |t| (0..total_units(&a)).position(|i| target_at(&a, i) == t);
        assert_eq!((index(agg_page), index(vol_page)), (Some(2), Some(12)));
        for step in 1..=4 {
            run_step(&mut a, None);
            a.cp_count += 1;
            assert_eq!(a.bitmap.page_summary_divergences(1), 0, "step {step}");
            let vol = a.vols[0].bitmap.page_summary_divergences(2);
            assert_eq!(vol == 0, step == 4, "step {step}: {vol} divergences");
            assert!(a.scrub.tickets.is_empty(), "step {step}");
            assert_eq!(a.scrub.health, HealthState::Healthy, "step {step}");
        }
        assert!(!a.groups[0].cache_quarantined && !a.vols[0].cache_quarantined);
        let counter = |name| a.obs.registry().counter_value(name);
        assert_eq!(counter("scrub.faults_detected"), Some(2));
        assert_eq!(counter("scrub.repairs_succeeded"), Some(2));
        assert_eq!(a.bitmap.summary_divergences(), 0);
        assert_eq!(a.vols[0].bitmap.summary_divergences(), 0);
    }

    /// One scrub read error tickets the group cache and fences it; the
    /// next step's repair releases it, and two steps without a ticket
    /// bring the aggregate back to Healthy.
    #[test]
    fn health_degrades_on_fault_and_recovers_with_hysteresis() {
        use wafl_faults::{FaultPlan, ReadErrorFault};
        let mut a = agg(64); // budget covers everything each step
        let plan = FaultPlan {
            scrub_read_errors: vec![ReadErrorFault {
                target: StructureId::Group(0),
                failures: 1, // the scan's read of GroupCache(0)
            }],
            ..FaultPlan::none()
        };
        let mut session = FaultSession::new(&plan);
        run_step(&mut a, Some(&mut session));
        assert_eq!(a.scrub.health, HealthState::Degraded(1));
        assert!(a.groups[0].cache_quarantined);
        // Ticket processes next CP (backoff base 1); then hysteresis.
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session));
        assert!(!a.groups[0].cache_quarantined, "repair releases");
        assert_eq!(
            a.scrub.health,
            HealthState::Degraded(1),
            "one clean step is not enough for Healthy"
        );
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session));
        assert_eq!(a.scrub.health, HealthState::Healthy);
        assert_eq!(
            a.obs.registry().counter_value("scrub.released"),
            Some(1),
            "one structure released"
        );
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
        run_step(&mut a, Some(&mut session));
        assert!(matches!(a.scrub.health, HealthState::Degraded(_)));
        // Repair attempts exhaust against the persistent error.
        for _ in 0..8 {
            a.cp_count += 1;
            run_step(&mut a, Some(&mut session));
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
        run_step(&mut a, Some(&mut session));
        assert!(matches!(a.scrub.health, HealthState::Degraded(_)));
        assert_eq!(a.scrub.tickets.len(), 2);
        assert!(a.groups[0].cache_quarantined, "cache falls back to sweep");
        // Failures exhausted: the next ticket pass re-reads, repairs,
        // and releases everything.
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session));
        assert!(a.scrub.tickets.is_empty());
        assert!(!a.groups[0].cache_quarantined);
    }

    #[test]
    fn scan_budget_is_exact() {
        let mut a = agg(3);
        for step in 1..=6u64 {
            run_step(&mut a, None);
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
        run_step(&mut a, Some(&mut session));
        assert_eq!(
            verify(&a, ScrubTarget::GroupCache(0)),
            0,
            "rebuilt in the step"
        );
        assert!(!a.groups[0].cache_quarantined, "nothing to fence");
        assert_eq!(a.scrub.health, HealthState::Healthy);
        assert_eq!(
            a.obs.registry().counter_value("scrub.repairs_succeeded"),
            Some(1)
        );

        // The same scribble under a scrub read error: the scan cannot
        // read the cache, so it fences it, and the ticket rebuilds it.
        let plan = wafl_faults::FaultPlan {
            scrub_read_errors: vec![wafl_faults::ReadErrorFault {
                target: StructureId::Group(0),
                failures: 1,
            }],
            ..plan
        };
        let mut session = FaultSession::new(&plan);
        assert_eq!(apply_due_runtime_scribbles(&mut a, &mut session), 1);
        run_step(&mut a, Some(&mut session));
        assert!(
            verify(&a, ScrubTarget::GroupCache(0)) > 0,
            "not read, not repaired"
        );
        assert!(a.groups[0].cache_quarantined, "structure fenced");
        assert_eq!(a.scrub.health, HealthState::Degraded(1));
        a.cp_count += 1;
        run_step(&mut a, Some(&mut session));
        assert!(!a.groups[0].cache_quarantined, "repair lifts the fence");
        assert_eq!(verify(&a, ScrubTarget::GroupCache(0)), 0);
    }
}
