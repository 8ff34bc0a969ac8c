//! Pre-registered observability handles for the allocator pipeline.
//!
//! Every [`Aggregate`](crate::Aggregate) owns one [`FsObs`], built around a
//! shared [`wafl_obs::Registry`]. The hot paths never format metric names
//! or touch the registry lock: each emitting site clones its handle once at
//! construction and bumps an atomic. `docs/observability.md` catalogs every
//! metric, its unit, its emitting site and what reads it; a family lands
//! with its reader or not at all.
//!
//! Durations under `cp.phase.*` come exclusively from the CP engine's
//! simulated cost model ([`CpuModel`](crate::CpuModel) and the media
//! models). The `cp.wall.*` family is the one exception: it carries the
//! CP pipeline's *measured* wall-clock phase times, recorded by the
//! monotonic-clock overlay so `simulate --check` can report how far the
//! model's phase ratios drift from real execution time.

use crate::cp::{CpuTerms, Stage};
use wafl_obs::trace::{PerCpSeries, TraceData, Tracer};
use wafl_obs::{Counter, Gauge, Histogram, Registry};

/// Bucket bounds for the chosen-AA score error, in bin widths. The HBPS
/// guarantee is error < 1 bin width, so everything should land in the
/// first two buckets; the tail exists to make violations visible.
const PICK_ERROR_BOUNDS: &[f64] = &[0.25, 0.5, 1.0, 2.0, 4.0];

/// Bucket bounds for simulated per-phase CP latencies, in microseconds.
const PHASE_US_BOUNDS: &[f64] = &[10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

/// The aggregate's observability handles, one per metric.
///
/// Counters accumulate over the aggregate's lifetime; they survive
/// crashes and remounts of the same in-memory [`Aggregate`](crate::Aggregate)
/// (the registry is host state, not file-system state).
#[derive(Clone, Debug)]
pub struct FsObs {
    registry: Registry,

    // ---- fs::allocator --------------------------------------------------
    /// AAs claimed by the write allocator (volume and RAID-group picks).
    pub(crate) aas_claimed: Counter,
    /// Candidate blocks examined while draining active AAs.
    pub(crate) blocks_examined: Counter,
    /// Picks served by the linear bitmap sweep (cache-less or fenced-cache
    /// fallback — e.g. a degraded mount's cache until its ticket settles).
    pub(crate) sweep_fallback_picks: Counter,
    /// Chosen-AA score error vs. the true best at pick time, in bin
    /// widths. The §3.3.2 guarantee bounds this below 1.0.
    pub(crate) pick_score_error: Histogram,
    /// Volume drains that resumed from the per-AA cursor instead of
    /// re-walking the AA's allocated prefix.
    pub(crate) cursor_hits: Counter,
    /// Volume drains that started from the AA's first VBN (no cursor, or
    /// the cursor was invalidated by frees, a replenish or a rebuild).
    pub(crate) cursor_misses: Counter,

    // ---- fs::cp ---------------------------------------------------------
    /// Consistency points completed (crashed CPs are not counted).
    pub(crate) cp_completed: Counter,
    /// Simulated CP CPU time, one histogram per model term, indexed
    /// like [`CpuTerms::HISTOGRAMS`].
    pub(crate) cp_phase_us: [Histogram; 6],
    /// Simulated media time for the CP's device writes (slowest device).
    pub(crate) cp_phase_media_us: Histogram,
    /// Measured wall-clock time of the whole CP pipeline.
    pub(crate) cp_wall_total_us: Histogram,
    /// Measured wall clock of each CP stage, `cp.wall.<stage>_us`,
    /// indexed by [`Stage`] — `cp.wall.apply_us` times the metafile
    /// accounting (the [`Stage`] doc says why it is called `apply`).
    pub(crate) cp_wall_us: [Histogram; Stage::COUNT],

    // ---- fs::mount ------------------------------------------------------
    /// Structures (groups + volumes) fast-pathed from a TopAA seed.
    pub(crate) mount_seed_hits: Counter,
    /// Bitmap pages walked by cold-scan cache rebuilds.
    pub(crate) mount_cold_pages: Counter,
    /// Active AAs named by a TopAA image that a mount reinstated.
    pub(crate) mount_active_resumed: Counter,
    /// Active AAs named by a TopAA image that a mount did not reinstate:
    /// the hint failed validation, or its structure degraded.
    pub(crate) mount_active_dropped: Counter,

    // ---- fs::iron -------------------------------------------------------
    /// Full `iron::check` audits run.
    pub(crate) iron_audits: Counter,

    // ---- fs::scrub ------------------------------------------------------
    /// Verification units checked by the runtime scrubber (budgeted, so
    /// this advances by exactly `scrub_pages_per_cp` per CP).
    pub(crate) scrub_pages_scanned: Counter,
    /// Scrub verifies that found a divergence (or an unreadable
    /// structure) in a previously unticketed unit.
    pub(crate) scrub_faults_detected: Counter,
    /// Fenced cache structures released after their ticket's repair.
    pub(crate) scrub_released: Counter,
    /// Repairs applied and re-verified clean: in the scan step that
    /// proved a unit wrong, or by a ticket.
    pub(crate) scrub_repairs_succeeded: Counter,

    // ---- health gauges --------------------------------------------------
    /// Health state machine position: 0 healthy, 1 degraded, 2 read-only.
    pub(crate) gauge_health_state: Gauge,
    /// Repair tickets awaiting processing.
    pub(crate) gauge_pending_repairs: Gauge,

    // ---- space gauges (exported at CP boundaries) -----------------------
    /// Fraction of the physical space free.
    pub(crate) gauge_free_fraction: Gauge,
    /// Delayed-free log backlog in blocks (0 unless `batched_frees`).
    pub(crate) gauge_delayed_free_backlog: Gauge,

    // ---- flight recorder (optional) -------------------------------------
    /// Trace journal, present when the aggregate was configured with
    /// `trace_events > 0`. Emission through [`FsObs::trace`] costs one
    /// `Option` check when tracing is off.
    pub(crate) tracer: Option<Tracer>,
    /// Per-CP time series sampled at the end of every completed CP's
    /// export, enabled together with the tracer.
    pub(crate) cp_series: Option<PerCpSeries>,
}

impl FsObs {
    /// Register every pipeline metric against `registry`.
    pub fn new(registry: Registry) -> FsObs {
        FsObs {
            aas_claimed: registry.counter("allocator.aas_claimed"),
            blocks_examined: registry.counter("allocator.blocks_examined"),
            sweep_fallback_picks: registry.counter("allocator.sweep_fallback_picks"),
            pick_score_error: registry
                .histogram("allocator.pick_score_error_bin_widths", PICK_ERROR_BOUNDS),
            cursor_hits: registry.counter("allocator.cursor_hits"),
            cursor_misses: registry.counter("allocator.cursor_misses"),
            cp_completed: registry.counter("cp.completed"),
            cp_phase_us: CpuTerms::HISTOGRAMS
                .map(|(name, _)| registry.histogram(name, PHASE_US_BOUNDS)),
            cp_phase_media_us: registry.histogram("cp.phase.media_us", PHASE_US_BOUNDS),
            cp_wall_total_us: registry.histogram("cp.wall.total_us", PHASE_US_BOUNDS),
            cp_wall_us: Stage::ALL
                .map(|stage| registry.histogram(&wall_histogram(stage), PHASE_US_BOUNDS)),
            mount_seed_hits: registry.counter("mount.topaa_seed_hits"),
            mount_cold_pages: registry.counter("mount.cold_scan_pages"),
            mount_active_resumed: registry.counter("mount.active_resumed"),
            mount_active_dropped: registry.counter("mount.active_dropped"),
            iron_audits: registry.counter("iron.audits_run"),
            scrub_pages_scanned: registry.counter("scrub.pages_scanned"),
            scrub_faults_detected: registry.counter("scrub.faults_detected"),
            scrub_released: registry.counter("scrub.released"),
            scrub_repairs_succeeded: registry.counter("scrub.repairs_succeeded"),
            gauge_health_state: registry.gauge("health.state"),
            gauge_pending_repairs: registry.gauge("health.pending_repairs"),
            gauge_free_fraction: registry.gauge("space.free_fraction"),
            gauge_delayed_free_backlog: registry.gauge("delayed_free.backlog_blocks"),
            tracer: None,
            cp_series: None,
            registry,
        }
    }

    /// The shared registry backing these handles.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Switch on the flight recorder: a bounded trace journal with room
    /// for `capacity` events plus the per-CP time series, whose rows carry
    /// the CP's and each stage's wall time. Called once at aggregate
    /// construction.
    pub(crate) fn enable_tracing(&mut self, capacity: usize) {
        let counters = [
            "cp.completed",
            "allocator.aas_claimed",
            "allocator.blocks_examined",
            "allocator.cursor_hits",
            "allocator.cursor_misses",
            "allocator.sweep_fallback_picks",
            "scrub.faults_detected",
            "scrub.released",
            wafl_obs::trace::DROPPED_EVENTS,
        ];
        let mut hist_sums = vec!["cp.wall.total_us".to_string()];
        hist_sums.extend(Stage::ALL.map(wall_histogram));
        hist_sums.push("cp.phase.media_us".to_string());
        let hist_sums: Vec<&str> = hist_sums.iter().map(String::as_str).collect();
        self.cp_series = Some(PerCpSeries::new(
            &self.registry,
            &counters,
            &hist_sums,
            &[
                "space.free_fraction",
                "health.state",
                "delayed_free.backlog_blocks",
            ],
        ));
        self.tracer = Some(Tracer::new(capacity, &self.registry));
    }

    /// Append a trace event stamped now; a no-op costing one `Option`
    /// check when tracing is off.
    #[inline]
    pub(crate) fn trace(&self, cp: u64, data: TraceData) {
        if let Some(t) = &self.tracer {
            t.emit(cp, data);
        }
    }

    /// Append a trace event with an explicit timestamp (the CP engine's
    /// reconstructed phase timeline).
    #[inline]
    pub(crate) fn trace_at(&self, ts_us: f64, cp: u64, data: TraceData) {
        if let Some(t) = &self.tracer {
            t.emit_at(ts_us, cp, data);
        }
    }

    /// µs since the tracer's epoch, when tracing is on.
    #[inline]
    pub(crate) fn trace_now_us(&self) -> Option<f64> {
        self.tracer.as_ref().map(|t| t.now_us())
    }

    /// Record one per-CP series row, when tracing is on.
    pub(crate) fn sample_cp_series(&mut self, cp: u64) {
        if let Some(series) = &mut self.cp_series {
            series.sample(cp);
        }
    }

    /// Per-volume metric name under the `vol=<id>` label prefix, so
    /// multi-volume runs stay attributable per volume in snapshot output.
    pub fn vol_metric_name(vol: wafl_types::VolumeId, name: &str) -> String {
        format!("vol={}.{name}", vol.get())
    }

    /// Counter handle under the volume's `vol=<id>` label prefix. This
    /// formats the name (and takes the registry lock), so it belongs at
    /// CP-boundary frequency, never on a per-op path.
    pub(crate) fn vol_counter(&self, vol: wafl_types::VolumeId, name: &str) -> Counter {
        self.registry.counter(&Self::vol_metric_name(vol, name))
    }

    /// Gauge handle under the volume's `vol=<id>` label prefix; same
    /// CP-boundary-only caveat as [`FsObs::vol_counter`].
    pub(crate) fn vol_gauge(&self, vol: wafl_types::VolumeId, name: &str) -> Gauge {
        self.registry.gauge(&Self::vol_metric_name(vol, name))
    }
}

/// The `cp.wall.<stage>_us` histogram of a CP stage.
fn wall_histogram(stage: Stage) -> String {
    format!("cp.wall.{}_us", stage.name())
}

impl Default for FsObs {
    fn default() -> FsObs {
        FsObs::new(Registry::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_one_registry() {
        let obs = FsObs::default();
        obs.aas_claimed.inc(4);
        assert_eq!(
            obs.registry().counter_value("allocator.aas_claimed"),
            Some(4)
        );
    }

    /// `docs/observability.md`'s catalog is the list of families and of
    /// what reads each: every fixed-name row is registered on a fresh
    /// `FsObs` with its row's type and names a reader, and every family
    /// `FsObs` registers has a row.
    #[test]
    fn catalog_rows_are_registered_and_read() {
        let doc = include_str!("../../../docs/observability.md");
        let catalog = doc
            .split_once("\n## Metric catalog\n")
            .and_then(|(_, rest)| rest.split("\n## ").next())
            .expect("the doc has a metric catalog section");
        let obs = FsObs::default();
        let reg = obs.registry();
        let mut rows = Vec::new();
        for line in catalog.lines().filter(|l| l.starts_with("| `")) {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            let [name, kind, _unit, _site, read_by] = cells[..] else {
                panic!("catalog row is not name | type | unit | site | read by: {line}");
            };
            let name = name.trim_matches('`');
            assert!(!read_by.is_empty(), "{name} names no reader");
            if name.contains('<') {
                continue; // a labelled family, formatted per structure
            }
            let registered = match kind {
                "counter" => reg.counter_value(name).is_some(),
                "gauge" => reg.gauge_value(name).is_some(),
                "histogram" => reg.histogram_handle(name).is_some(),
                _ => panic!("{name}: unknown type {kind}"),
            };
            assert!(
                registered,
                "{name} is catalogued as a {kind} but not registered"
            );
            rows.push(name);
        }
        // The other way round: every name `FsObs::new` registers.
        let src = include_str!("obs.rs");
        let src = &src[..src.find("#[cfg(test)]").expect("obs.rs has tests")];
        let mut names: Vec<String> = [".counter(\"", ".gauge(\"", ".histogram(\""]
            .iter()
            .flat_map(|call| src.split(call).skip(1))
            .map(|rest| rest[..rest.find('"').expect("a closing quote")].to_string())
            .collect();
        names.extend(CpuTerms::HISTOGRAMS.map(|(name, _)| name.to_string()));
        names.extend(Stage::ALL.map(wall_histogram));
        for name in &names {
            assert!(rows.contains(&name.as_str()), "{name} has no catalog row");
        }
        assert_eq!(rows.len(), names.len(), "catalog rows {rows:?}");
    }
}
