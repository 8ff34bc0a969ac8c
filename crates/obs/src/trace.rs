//! Flight-recorder trace journal for the CP pipeline.
//!
//! The metrics registry answers "how much" at CP boundaries; this module
//! answers "what happened, and when" *inside* a CP. A [`Tracer`] is a
//! bounded journal of typed [`TraceEvent`]s — CP phase spans, allocator
//! cursor and sweep events, scrub and health transitions, mount phases:
//!
//! * the journal is one mutex-guarded `Vec`, appended to through `&self`
//!   (the CP runs on its caller's thread, so the lock never waits);
//! * when the journal is full, events are dropped — never overwritten,
//!   never blocked on — and counted in the registry's
//!   `trace.dropped_events` counter;
//! * every event carries the CP sequence number it belongs to.
//!
//! Timestamps come from a monotonic clock anchored at tracer creation
//! (`µs` since the epoch). This is the one place in `wafl-obs` that reads
//! a clock: trace timestamps are export-only and never feed back into the
//! simulation.
//!
//! Two exporters render a journal:
//!
//! * Chrome trace events, on one CP-engine track: [`chrome_events`] lays
//!   the journal out as a typed list of span begins and ends, instants
//!   and track metadata ([`ChromeEvent`]); [`validate_chrome_trace`]
//!   checks that list before it is written, and [`render_chrome_trace`]
//!   writes it as JSON loadable in `chrome://tracing` or Perfetto;
//! * [`PerCpSeries`] — a per-CP time-series table of registry counter
//!   deltas, histogram-sum deltas, and gauge values, rendered as CSV.
//!   `wafl-sim trace-report` reads that CSV.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{push_f64, push_json_string, Counter, Gauge, Histogram, Registry};

/// Name of the registry counter tracking events dropped by a full journal.
pub const DROPPED_EVENTS: &str = "trace.dropped_events";

/// One typed journal entry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the tracer's epoch (span start for spans).
    pub ts_us: f64,
    /// CP sequence number the event belongs to (the value of the
    /// aggregate's CP counter when the event was emitted).
    pub cp: u64,
    /// The typed payload.
    pub data: TraceData,
}

/// The typed payload of a [`TraceEvent`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceData {
    /// A completed phase span: `ts_us` is the start, `dur_us` the
    /// measured wall duration, `model_us` the simulated cost model's
    /// duration for the same work (0 when the phase has no model term).
    /// Recording begin and end as one entry makes exported begin/end
    /// pairs balanced by construction even when the journal drops events.
    Span {
        /// Span name, e.g. `"cp.plan_physical"` or `"mount.topaa"`.
        name: &'static str,
        /// Measured wall-clock duration in µs.
        dur_us: f64,
        /// Modeled duration in µs (0 when not modeled).
        model_us: f64,
    },
    /// The allocator fell back to a bitmap sweep for `picks` picks.
    SweepFallback {
        /// Sweep picks in this CP.
        picks: u64,
    },
    /// A volume's per-AA drain cursor was invalidated.
    CursorInvalidated {
        /// The owning volume id.
        vol: u32,
        /// Why, e.g. `"replenish"`.
        reason: &'static str,
    },
    /// The scrubber ticketed a unit its scan could not read or repair,
    /// fencing it if it is a cache structure.
    Quarantine {
        /// Units ticketed by this event.
        units: u64,
    },
    /// The scrubber released repaired cache structures from their fence.
    Release {
        /// Structures released by this event.
        units: u64,
    },
    /// The health state machine changed state (values as per the
    /// `health.state` gauge: 0 = Healthy, 1 = Degraded, 2 = ReadOnly).
    HealthChange {
        /// Previous state.
        from: u8,
        /// New state.
        to: u8,
    },
}

impl TraceData {
    /// The exported event name for this payload.
    pub fn name(&self) -> &'static str {
        match self {
            TraceData::Span { name, .. } => name,
            TraceData::SweepFallback { .. } => "alloc.sweep_fallback",
            TraceData::CursorInvalidated { .. } => "alloc.cursor_invalidated",
            TraceData::Quarantine { .. } => "scrub.quarantine",
            TraceData::Release { .. } => "scrub.release",
            TraceData::HealthChange { .. } => "health.state",
        }
    }
}

struct TracerInner {
    epoch: Instant,
    capacity: usize,
    /// The journal in append order, never longer than `capacity`.
    events: Mutex<Vec<TraceEvent>>,
    dropped: Counter,
}

/// A bounded trace journal. Cloning shares the journal, so one handle
/// can be pre-registered per subsystem; all methods take `&self`.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// Create a journal with room for `capacity` events (clamped to at
    /// least 1), registering its `trace.dropped_events` counter in
    /// `registry`.
    pub fn new(capacity: usize, registry: &Registry) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            inner: Arc::new(TracerInner {
                epoch: Instant::now(),
                capacity,
                events: Mutex::new(Vec::new()),
                dropped: registry.counter(DROPPED_EVENTS),
            }),
        }
    }

    /// Microseconds elapsed since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.inner.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Append an event stamped with the current time.
    pub fn emit(&self, cp: u64, data: TraceData) {
        self.emit_at(self.now_us(), cp, data);
    }

    /// Append an event with an explicit timestamp (used by the CP engine
    /// to journal a phase timeline reconstructed at the end of the CP).
    /// A full journal drops the event and bumps `trace.dropped_events`.
    pub fn emit_at(&self, ts_us: f64, cp: u64, data: TraceData) {
        let mut events = self.journal();
        if events.len() < self.inner.capacity {
            events.push(TraceEvent { ts_us, cp, data });
        } else {
            self.inner.dropped.inc(1);
        }
    }

    /// Journal capacity in events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Events recorded so far (at most `capacity`).
    pub fn recorded(&self) -> usize {
        self.journal().len()
    }

    /// Events dropped because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Snapshot the journal in append order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.journal().clone()
    }

    fn journal(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.inner.events.lock().expect("trace journal poisoned")
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

/// The Chrome `tid` of the CP-engine track, the only one exported.
const ENGINE_TID: u64 = 0;

/// One Chrome trace-event record, as [`chrome_events`] lays a journal
/// out. Spans and instants all ride the CP-engine track (`tid 0`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChromeEvent {
    /// `"ph":"M"`: names the process (`tid: None`) or a track.
    Meta {
        /// `process_name` or `thread_name`.
        name: &'static str,
        /// The named track, `None` for the process.
        tid: Option<u64>,
        /// The name given.
        value: &'static str,
    },
    /// `"ph":"B"`: a journaled [`TraceData::Span`] opens at its `ts_us`.
    Begin(TraceEvent),
    /// `"ph":"E"`: the span closes.
    End {
        /// End, µs: the span's end, clipped to the enclosing span's.
        ts: f64,
        /// The journaled [`TraceData::Span`], whose `dur_us` is exported
        /// unclipped as `wall_us`.
        span: TraceEvent,
    },
    /// `"ph":"i"`: a journaled instant (any payload but a span).
    Instant(TraceEvent),
}

impl ChromeEvent {
    fn ts(&self) -> f64 {
        match *self {
            ChromeEvent::Meta { .. } => 0.0,
            ChromeEvent::End { ts, .. } => ts,
            ChromeEvent::Begin(ev) | ChromeEvent::Instant(ev) => ev.ts_us,
        }
    }
}

/// Lay a journal snapshot out as Chrome trace events: the process and
/// CP-engine track names, then the track.
///
/// Events are ordered CP-major — stable-sorted by `(cp, ts)` — and each
/// [`TraceData::Span`] expands to a balanced [`ChromeEvent::Begin`] /
/// [`ChromeEvent::End`] pair. Spans that overlap without nesting are
/// clipped to the enclosing span's end so the begin/end sequence stays
/// well-formed. Instants are merged in by timestamp.
pub fn chrome_events(events: &[TraceEvent]) -> Vec<ChromeEvent> {
    let mut sorted: Vec<TraceEvent> = events.to_vec();
    sorted.sort_by(|a, b| {
        (a.cp, a.ts_us)
            .partial_cmp(&(b.cp, b.ts_us))
            .expect("trace timestamps are finite")
    });
    let (mut spans, mut instants) = (Vec::new(), Vec::new());
    for ev in sorted {
        match ev.data {
            TraceData::Span { dur_us, .. } => spans.push((ev.ts_us + dur_us.max(0.0), ev)),
            _ => instants.push(ev),
        }
    }
    spans.sort_by(|(a_end, a), (b_end, b)| {
        (a.ts_us, -a_end)
            .partial_cmp(&(b.ts_us, -b_end))
            .expect("trace timestamps are finite")
    });

    // The B/E stream, by a stack walk: ordered by timestamp, validly
    // nested. The stack holds the ends of the open spans.
    let mut stream = Vec::with_capacity(2 * spans.len());
    let mut open: Vec<ChromeEvent> = Vec::new();
    for (end, span) in spans {
        let start = span.ts_us;
        while let Some(top) = open.pop_if(|top| top.ts() <= start) {
            stream.push(top);
        }
        let ts = open.last().map_or(end, |top| end.min(top.ts())).max(start);
        stream.push(ChromeEvent::Begin(span));
        open.push(ChromeEvent::End { ts, span });
    }
    stream.extend(open.into_iter().rev());

    let mut out = vec![
        ChromeEvent::Meta {
            name: "process_name",
            tid: None,
            value: "wafl-sim",
        },
        ChromeEvent::Meta {
            name: "thread_name",
            tid: Some(ENGINE_TID),
            value: "cp-engine",
        },
    ];
    let mut instants = instants.into_iter().peekable();
    for ev in stream {
        while let Some(instant) = instants.next_if(|i| i.ts_us < ev.ts()) {
            out.push(ChromeEvent::Instant(instant));
        }
        out.push(ev);
    }
    out.extend(instants.map(ChromeEvent::Instant));
    out
}

/// Render a Chrome trace-event list as JSON (`chrome://tracing` /
/// Perfetto-loadable).
pub fn render_chrome_trace(list: &[ChromeEvent]) -> String {
    let mut out = String::with_capacity(list.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in list.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match *ev {
            ChromeEvent::Meta { name, tid, value } => {
                out.push_str("{\"name\":");
                push_json_string(&mut out, name);
                out.push_str(",\"ph\":\"M\",\"pid\":1");
                if let Some(tid) = tid {
                    out.push_str(&format!(",\"tid\":{tid}"));
                }
                out.push_str(",\"args\":{\"name\":");
                push_json_string(&mut out, value);
                out.push_str("}}");
            }
            ChromeEvent::Begin(span) => {
                push_event_header(&mut out, span.data.name(), "B", span.ts_us);
                out.push_str(&format!(",\"args\":{{\"cp\":{}}}}}", span.cp));
            }
            ChromeEvent::End { ts, span } => {
                let TraceData::Span {
                    name,
                    dur_us,
                    model_us,
                } = span.data
                else {
                    unreachable!("only spans end")
                };
                push_event_header(&mut out, name, "E", ts);
                out.push_str(&format!(",\"args\":{{\"cp\":{},\"wall_us\":", span.cp));
                push_f64(&mut out, dur_us);
                out.push_str(",\"model_us\":");
                push_f64(&mut out, model_us);
                out.push_str("}}");
            }
            ChromeEvent::Instant(ev) => push_instant(&mut out, &ev),
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// `{"name":..,"cat":..,"ph":..,"ts":..,"pid":1,"tid":0` — the category
/// is the name up to its first dot.
fn push_event_header(out: &mut String, name: &str, ph: &str, ts: f64) {
    out.push_str("{\"name\":");
    push_json_string(out, name);
    out.push_str(",\"cat\":");
    push_json_string(out, name.split('.').next().unwrap_or(name));
    out.push_str(",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    push_f64(out, ts);
    out.push_str(&format!(",\"pid\":1,\"tid\":{ENGINE_TID}"));
}

fn push_instant(out: &mut String, ev: &TraceEvent) {
    push_event_header(out, ev.data.name(), "i", ev.ts_us);
    out.push_str(",\"s\":\"t\",\"args\":{\"cp\":");
    out.push_str(&ev.cp.to_string());
    match ev.data {
        TraceData::SweepFallback { picks } => out.push_str(&format!(",\"picks\":{picks}")),
        TraceData::CursorInvalidated { vol, reason } => {
            out.push_str(&format!(",\"vol\":{vol},\"reason\":"));
            push_json_string(out, reason);
        }
        TraceData::Quarantine { units } | TraceData::Release { units } => {
            out.push_str(&format!(",\"units\":{units}"));
        }
        TraceData::HealthChange { from, to } => {
            out.push_str(&format!(",\"from\":{from},\"to\":{to}"));
        }
        TraceData::Span { .. } => unreachable!("spans are exported as B/E pairs"),
    }
    out.push_str("}}");
}

/// Summary facts [`validate_chrome_trace`] proves about a trace-event
/// list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Matched begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Whether the CP-engine track metadata is present.
    pub engine_track: bool,
    /// Highest CP sequence number seen.
    pub max_cp: u64,
}

/// Validate a trace-event list before it is written: every begin has a
/// matching same-name end on the track (in list order), CP sequence
/// numbers never decrease, and the CP-engine track is named.
pub fn validate_chrome_trace(list: &[ChromeEvent]) -> Result<ChromeTraceStats, String> {
    let mut stats = ChromeTraceStats::default();
    let mut open: Vec<&str> = Vec::new();
    for (i, ev) in list.iter().enumerate() {
        let cp = match *ev {
            ChromeEvent::Meta {
                name: "thread_name",
                value: "cp-engine",
                ..
            } => {
                stats.engine_track = true;
                continue;
            }
            ChromeEvent::Meta { .. } => continue,
            ChromeEvent::Begin(span) => {
                open.push(span.data.name());
                span.cp
            }
            ChromeEvent::End { span, .. } => {
                let name = span.data.name();
                match open.pop() {
                    Some(top) if top == name => stats.spans += 1,
                    Some(top) => {
                        return Err(format!(
                            "event {i}: end '{name}' does not match open span '{top}'"
                        ))
                    }
                    None => return Err(format!("event {i}: end '{name}' with no open span")),
                }
                span.cp
            }
            ChromeEvent::Instant(ev) => {
                stats.instants += 1;
                ev.cp
            }
        };
        if cp < stats.max_cp {
            return Err(format!(
                "event {i}: cp {cp} after cp {} — not CP-ordered",
                stats.max_cp
            ));
        }
        stats.max_cp = cp;
    }
    if let Some(top) = open.last() {
        return Err(format!("unclosed span '{top}'"));
    }
    if !stats.engine_track {
        return Err("missing cp-engine track metadata".to_string());
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Per-CP time series
// ---------------------------------------------------------------------------

/// A per-CP time-series table: for every completed CP, the delta of each
/// tracked counter, the delta of each tracked histogram's `sum`, and the
/// current value of each tracked gauge.
///
/// Handles are resolved once at construction (registering the named
/// instruments if absent), so [`PerCpSeries::sample`] never takes the
/// registry lock — it is safe to call from the CP boundary of a hot run.
#[derive(Clone, Debug)]
pub struct PerCpSeries {
    counters: Vec<(String, Counter, u64)>,
    hist_sums: Vec<(String, Histogram, f64)>,
    gauges: Vec<(String, Gauge)>,
    rows: Vec<CpRow>,
}

/// One sampled row of a [`PerCpSeries`].
#[derive(Clone, Debug)]
pub struct CpRow {
    /// The CP sequence number the row describes.
    pub cp: u64,
    /// Values in column order: counter deltas, histogram-sum deltas,
    /// then gauge values.
    pub values: Vec<f64>,
}

impl PerCpSeries {
    /// Track the named instruments. Counter and histogram columns report
    /// per-CP deltas; gauge columns report the value at sample time.
    pub fn new(
        registry: &Registry,
        counters: &[&str],
        hist_sums: &[&str],
        gauges: &[&str],
    ) -> PerCpSeries {
        PerCpSeries {
            counters: counters
                .iter()
                .map(|n| {
                    let c = registry.counter(n);
                    let base = c.get();
                    (n.to_string(), c, base)
                })
                .collect(),
            hist_sums: hist_sums
                .iter()
                .map(|n| {
                    let h = registry.histogram(n, &[]);
                    let base = h.sum();
                    (n.to_string(), h, base)
                })
                .collect(),
            gauges: gauges
                .iter()
                .map(|n| (n.to_string(), registry.gauge(n)))
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Column names, in row-value order, prefixed with `cp`.
    pub fn columns(&self) -> Vec<String> {
        let mut cols =
            Vec::with_capacity(1 + self.counters.len() + self.hist_sums.len() + self.gauges.len());
        cols.push("cp".to_string());
        cols.extend(self.counters.iter().map(|(n, _, _)| n.clone()));
        cols.extend(self.hist_sums.iter().map(|(n, _, _)| format!("{n}.sum")));
        cols.extend(self.gauges.iter().map(|(n, _)| n.clone()));
        cols
    }

    /// Record one row for the CP that just completed.
    pub fn sample(&mut self, cp: u64) {
        let mut values =
            Vec::with_capacity(self.counters.len() + self.hist_sums.len() + self.gauges.len());
        for (_, c, last) in &mut self.counters {
            let cur = c.get();
            values.push(cur.saturating_sub(*last) as f64);
            *last = cur;
        }
        for (_, h, last) in &mut self.hist_sums {
            let cur = h.sum();
            values.push(cur - *last);
            *last = cur;
        }
        for (_, g) in &self.gauges {
            values.push(g.get());
        }
        self.rows.push(CpRow { cp, values });
    }

    /// Sampled rows, oldest first.
    pub fn rows(&self) -> &[CpRow] {
        &self.rows
    }

    /// Render as CSV with a header row; a non-finite value is `null`.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 48 + 128);
        out.push_str(&self.columns().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.cp.to_string());
            for v in &row.values {
                out.push(',');
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, dur_us: f64) -> TraceData {
        TraceData::Span {
            name,
            dur_us,
            model_us: 0.0,
        }
    }

    #[test]
    fn ring_records_in_claim_order_and_counts_drops_exactly() {
        let reg = Registry::new();
        let t = Tracer::new(4, &reg);
        for i in 0..6u64 {
            t.emit(i, TraceData::SweepFallback { picks: i });
        }
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.recorded(), 4);
        assert_eq!(t.dropped(), 2);
        assert_eq!(reg.counter_value(DROPPED_EVENTS), Some(2));
        let events = t.events();
        assert_eq!(events.len(), 4);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.cp, i as u64);
        }
    }

    #[test]
    fn concurrent_emission_below_capacity_loses_nothing() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 5_000;
        let reg = Registry::new();
        let t = Tracer::new(THREADS * PER_THREAD, &reg);
        let workers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        t.emit(
                            i as u64,
                            TraceData::CursorInvalidated {
                                vol: thread as u32,
                                reason: "replenish",
                            },
                        );
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(t.dropped(), 0);
        let events = t.events();
        assert_eq!(events.len(), THREADS * PER_THREAD);
        // Every (thread, i) pair arrived exactly once.
        let mut seen = vec![0u32; THREADS * PER_THREAD];
        for ev in &events {
            let TraceData::CursorInvalidated { vol, .. } = ev.data else {
                panic!("only cursor events were emitted");
            };
            seen[vol as usize * PER_THREAD + ev.cp as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn concurrent_overflow_counts_dropped_exactly() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 2_000;
        const CAPACITY: usize = 1_000;
        let reg = Registry::new();
        let t = Tracer::new(CAPACITY, &reg);
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        t.emit(0, TraceData::SweepFallback { picks: 1 });
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(t.events().len(), CAPACITY);
        assert_eq!(t.dropped(), (THREADS * PER_THREAD - CAPACITY) as u64);
    }

    #[test]
    fn chrome_export_validates_and_rejects_a_broken_list() {
        let reg = Registry::new();
        let t = Tracer::new(64, &reg);
        // CP 0: a cp span containing two phases, a cursor instant inside
        // the first, a quarantine instant.
        t.emit_at(0.0, 0, span("cp.total", 10.0));
        t.emit_at(0.0, 0, span("cp.plan_virtual", 4.0));
        t.emit_at(4.0, 0, span("cp.bind", 5.0));
        t.emit_at(
            1.5,
            0,
            TraceData::CursorInvalidated {
                vol: 7,
                reason: "replenish",
            },
        );
        t.emit_at(9.0, 0, TraceData::Quarantine { units: 2 });
        // CP 1.
        t.emit_at(20.0, 1, span("cp.total", 3.0));
        t.emit_at(21.0, 1, TraceData::HealthChange { from: 0, to: 1 });

        let list = chrome_events(&t.events());
        let stats = validate_chrome_trace(&list).expect("trace validates");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.instants, 3);
        assert!(stats.engine_track);
        assert_eq!(stats.max_cp, 1);
        // A list that never names the engine track is rejected.
        let unnamed: Vec<ChromeEvent> = list
            .iter()
            .filter(|e| !matches!(e, ChromeEvent::Meta { tid: Some(_), .. }))
            .copied()
            .collect();
        assert!(validate_chrome_trace(&unnamed).is_err());
        // So is one missing an end, or with a CP out of order.
        let last_end = list
            .iter()
            .rposition(|e| matches!(e, ChromeEvent::End { .. }))
            .unwrap();
        let mut unbalanced = list.clone();
        unbalanced.remove(last_end);
        let err = validate_chrome_trace(&unbalanced).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
        let mut reordered = list.clone();
        let health = reordered
            .iter()
            .position(|e| matches!(e, ChromeEvent::Instant(ev) if ev.cp == 1))
            .unwrap();
        let cp1 = reordered.remove(health);
        reordered.insert(2, cp1);
        let err = validate_chrome_trace(&reordered).unwrap_err();
        assert!(err.contains("not CP-ordered"), "{err}");
    }

    #[test]
    fn overlapping_same_track_spans_are_clipped_not_broken() {
        let reg = Registry::new();
        let t = Tracer::new(8, &reg);
        // Two spans that overlap without nesting.
        t.emit_at(0.0, 0, span("mount.topaa", 10.0));
        t.emit_at(5.0, 0, span("mount.cold", 10.0));
        let list = chrome_events(&t.events());
        let stats = validate_chrome_trace(&list).expect("clipped trace validates");
        assert_eq!(stats.spans, 2);
        // The inner end is clipped to 10 and keeps its wall time.
        assert_eq!(
            render_chrome_trace(&list),
            "{\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"wafl-sim\"}},\
             {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"cp-engine\"}},\
             {\"name\":\"mount.topaa\",\"cat\":\"mount\",\"ph\":\"B\",\"ts\":0,\"pid\":1,\"tid\":0,\"args\":{\"cp\":0}},\
             {\"name\":\"mount.cold\",\"cat\":\"mount\",\"ph\":\"B\",\"ts\":5,\"pid\":1,\"tid\":0,\"args\":{\"cp\":0}},\
             {\"name\":\"mount.cold\",\"cat\":\"mount\",\"ph\":\"E\",\"ts\":10,\"pid\":1,\"tid\":0,\"args\":{\"cp\":0,\"wall_us\":10,\"model_us\":0}},\
             {\"name\":\"mount.topaa\",\"cat\":\"mount\",\"ph\":\"E\",\"ts\":10,\"pid\":1,\"tid\":0,\"args\":{\"cp\":0,\"wall_us\":10,\"model_us\":0}}\
             ],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn export_orders_events_cp_major() {
        let reg = Registry::new();
        let t = Tracer::new(16, &reg);
        // Emit out of cp order (a late-arriving event from cp 0 after
        // cp 1 started).
        t.emit_at(30.0, 1, span("cp.total", 5.0));
        t.emit_at(10.0, 0, span("cp.total", 5.0));
        t.emit_at(12.0, 0, TraceData::SweepFallback { picks: 3 });
        let list = chrome_events(&t.events());
        validate_chrome_trace(&list).expect("cp-major order validates");
    }

    #[test]
    fn per_cp_series_reports_deltas_and_gauge_values() {
        let reg = Registry::new();
        let c = reg.counter("ops");
        let h = reg.histogram("lat", &[10.0]);
        let g = reg.gauge("free");
        c.inc(5);
        let mut series = PerCpSeries::new(&reg, &["ops"], &["lat"], &["free"]);
        c.inc(3);
        h.observe(2.0);
        g.set(0.5);
        series.sample(0);
        c.inc(4);
        h.observe(1.0);
        g.set(0.25);
        series.sample(1);
        assert_eq!(series.columns(), vec!["cp", "ops", "lat.sum", "free"]);
        let rows = series.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].values, vec![3.0, 2.0, 0.5]);
        assert_eq!(rows[1].values, vec![4.0, 1.0, 0.25]);
        assert_eq!(
            series.to_csv(),
            "cp,ops,lat.sum,free\n0,3,2,0.5\n1,4,1,0.25\n"
        );
    }
}
