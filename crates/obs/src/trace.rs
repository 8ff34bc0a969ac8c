//! Flight-recorder trace journal for the CP pipeline.
//!
//! The metrics registry answers "how much" at CP boundaries; this module
//! answers "what happened, and when" *inside* a CP. A [`Tracer`] is a
//! lock-light, bounded journal of typed [`TraceEvent`]s — CP phase spans,
//! allocator cursor and sweep events, scrub and health transitions, mount
//! phases — that any thread can append to without ever blocking the hot
//! path:
//!
//! * appending claims a slot with one relaxed `fetch_add` on the write
//!   cursor; each slot is an uncontended per-slot mutex (no two writers
//!   ever claim the same slot, so the lock never waits);
//! * when the journal is full, events are dropped — never overwritten,
//!   never blocked on — and counted in the registry's
//!   `trace.dropped_events` counter;
//! * every event carries the CP sequence number it belongs to, so events
//!   are causally ordered per CP even when several threads emit them
//!   concurrently (the CP itself runs on its caller's thread).
//!
//! Timestamps come from a monotonic clock anchored at tracer creation
//! (`µs` since the epoch). This is the one place in `wafl-obs` that reads
//! a clock: trace timestamps are export-only and never feed back into the
//! simulation.
//!
//! Two exporters render a journal:
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON loadable in
//!   `chrome://tracing` or Perfetto, on one CP-engine track;
//! * [`PerCpSeries`] — a per-CP time-series table of registry counter
//!   deltas, histogram-sum deltas, and gauge values, rendered as JSON or
//!   CSV.
//!
//! The matching [`parse_chrome_trace`] / [`validate_chrome_trace`] pair
//! (plus the minimal [`json`] parser underneath them — the workspace's
//! serde shim is serialize-only) lets `wafl-cli trace-report` and the CI
//! trace smoke re-read an exported file and prove every span begin has a
//! matching end on its track.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::{push_f64, push_json_string, Counter, Gauge, Histogram, Registry};

/// Name of the registry counter tracking events dropped by a full ring.
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
    /// pairs balanced by construction even when the ring drops events.
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
        /// Why, e.g. `"replenish"` or `"quarantine"`.
        reason: &'static str,
    },
    /// The scrubber quarantined structures after verified divergence.
    Quarantine {
        /// Structures quarantined by this event.
        units: u64,
    },
    /// The scrubber released repaired structures from quarantine.
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
    /// Next slot to claim. May run past `slots.len()`; the excess is the
    /// number of dropped events.
    head: AtomicUsize,
    /// Pre-allocated journal slots. Each slot is written exactly once by
    /// the claiming thread, so its mutex never contends; `None` marks a
    /// claimed-but-not-yet-written slot during a racing snapshot.
    slots: Vec<Mutex<Option<TraceEvent>>>,
    dropped: Counter,
}

/// A bounded, lock-light trace journal. Cloning shares the journal, so
/// one handle can be pre-registered per subsystem and appended to from
/// any thread; all methods take `&self`.
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
                head: AtomicUsize::new(0),
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
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
    /// Claims a slot with one relaxed `fetch_add`; a full ring drops the
    /// event and bumps `trace.dropped_events` instead of blocking.
    pub fn emit_at(&self, ts_us: f64, cp: u64, data: TraceData) {
        let inner = &*self.inner;
        let idx = inner.head.fetch_add(1, Ordering::Relaxed);
        if idx >= inner.slots.len() {
            inner.dropped.inc(1);
            return;
        }
        let mut slot = inner.slots[idx].lock().expect("trace slot poisoned");
        *slot = Some(TraceEvent { ts_us, cp, data });
    }

    /// Journal capacity in events.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Events recorded so far (at most `capacity`).
    pub fn recorded(&self) -> usize {
        self.inner.head.load(Ordering::Relaxed).min(self.capacity())
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.get()
    }

    /// Snapshot the journal in claim order, skipping any slot a racing
    /// writer has claimed but not yet written. Intended for quiescent
    /// points (CP boundaries, end of run).
    pub fn events(&self) -> Vec<TraceEvent> {
        let n = self.recorded();
        let mut out = Vec::with_capacity(n);
        for slot in &self.inner.slots[..n] {
            if let Some(ev) = *slot.lock().expect("trace slot poisoned") {
                out.push(ev);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event exporter
// ---------------------------------------------------------------------------

/// The Chrome `tid` of the CP-engine track, the only one exported.
const ENGINE_TID: u64 = 0;

fn cat_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn push_event_header(out: &mut String, name: &str, ph: &str, ts: f64, tid: u64) {
    out.push_str("{\"name\":");
    push_json_string(out, name);
    out.push_str(",\"cat\":");
    push_json_string(out, cat_of(name));
    out.push_str(",\"ph\":\"");
    out.push_str(ph);
    out.push_str("\",\"ts\":");
    push_f64(out, ts);
    out.push_str(",\"pid\":1,\"tid\":");
    out.push_str(&tid.to_string());
}

fn push_instant(out: &mut String, ev: &TraceEvent) {
    push_event_header(out, ev.data.name(), "i", ev.ts_us, ENGINE_TID);
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

fn push_metadata(out: &mut String, name: &str, tid: Option<u64>, value: &str) {
    out.push_str("{\"name\":");
    push_json_string(out, name);
    out.push_str(",\"ph\":\"M\",\"pid\":1");
    if let Some(tid) = tid {
        out.push_str(&format!(",\"tid\":{tid}"));
    }
    out.push_str(",\"args\":{\"name\":");
    push_json_string(out, value);
    out.push_str("}}");
}

/// Render a journal snapshot as Chrome trace-event JSON
/// (`chrome://tracing` / Perfetto-loadable).
///
/// Everything rides the CP-engine track (`tid 0`). Events are ordered
/// CP-major — stable-sorted by `(cp, ts)` — and each [`TraceData::Span`]
/// expands to a balanced `"B"`/`"E"` pair. Spans that overlap without
/// nesting are clipped to the enclosing span's end so the begin/end
/// sequence stays well-formed; the span's `wall_us` arg always carries
/// the unclipped duration.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by(|a, b| {
        (a.cp, a.ts_us)
            .partial_cmp(&(b.cp, b.ts_us))
            .expect("trace timestamps are finite")
    });

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    push_metadata(&mut out, "process_name", None, "wafl-sim");
    out.push(',');
    push_metadata(&mut out, "thread_name", Some(ENGINE_TID), "cp-engine");
    push_track(&mut out, &sorted);
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Emit the track's events: spans as nested B/E pairs (clipping
/// non-nesting overlap), instants merged in by timestamp.
fn push_track(out: &mut String, track: &[&TraceEvent]) {
    struct OpenSpan {
        name: &'static str,
        cp: u64,
        end: f64,
        wall_us: f64,
        model_us: f64,
    }
    let mut spans: Vec<(f64, f64, &TraceEvent)> = Vec::new();
    let mut instants: Vec<&TraceEvent> = Vec::new();
    for ev in track {
        match ev.data {
            TraceData::Span { dur_us, .. } => {
                spans.push((ev.ts_us, ev.ts_us + dur_us.max(0.0), ev))
            }
            _ => instants.push(ev),
        }
    }
    spans.sort_by(|a, b| {
        (a.0, -a.1)
            .partial_cmp(&(b.0, -b.1))
            .expect("trace timestamps are finite")
    });

    // Build the B/E stream with a stack walk; entries come out ordered by
    // timestamp with valid per-track nesting.
    let mut entries: Vec<(f64, String)> = Vec::new();
    let mut stack: Vec<OpenSpan> = Vec::new();
    let close = |entries: &mut Vec<(f64, String)>, open: OpenSpan| {
        let mut s = String::new();
        push_event_header(&mut s, open.name, "E", open.end, ENGINE_TID);
        s.push_str(&format!(",\"args\":{{\"cp\":{},\"wall_us\":", open.cp));
        push_f64(&mut s, open.wall_us);
        s.push_str(",\"model_us\":");
        push_f64(&mut s, open.model_us);
        s.push_str("}}");
        entries.push((open.end, s));
    };
    for (start, end, ev) in spans {
        while let Some(top) = stack.last() {
            if top.end <= start {
                let open = stack.pop().expect("non-empty stack");
                close(&mut entries, open);
            } else {
                break;
            }
        }
        let mut end = end;
        if let Some(top) = stack.last() {
            end = end.min(top.end);
        }
        let end = end.max(start);
        let (name, wall_us, model_us) = match ev.data {
            TraceData::Span {
                name,
                dur_us,
                model_us,
            } => (name, dur_us, model_us),
            _ => unreachable!("spans vec only holds Span events"),
        };
        let mut s = String::new();
        push_event_header(&mut s, name, "B", start, ENGINE_TID);
        s.push_str(&format!(",\"args\":{{\"cp\":{}}}}}", ev.cp));
        entries.push((start, s));
        stack.push(OpenSpan {
            name,
            cp: ev.cp,
            end,
            wall_us,
            model_us,
        });
    }
    while let Some(open) = stack.pop() {
        close(&mut entries, open);
    }

    // Merge instants into the fixed B/E stream by timestamp.
    let mut next_instant = 0usize;
    for (ts, rendered) in entries {
        while next_instant < instants.len() && instants[next_instant].ts_us < ts {
            out.push(',');
            push_instant(out, instants[next_instant]);
            next_instant += 1;
        }
        out.push(',');
        out.push_str(&rendered);
    }
    for ev in &instants[next_instant..] {
        out.push(',');
        push_instant(out, ev);
    }
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

    /// Render as `{"columns":[..],"rows":[[cp, ..], ..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 64 + 128);
        out.push_str("{\"columns\":[");
        for (i, col) in self.columns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, col);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&row.cp.to_string());
            for v in &row.values {
                out.push(',');
                push_f64(&mut out, *v);
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Render as CSV with a header row.
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

// ---------------------------------------------------------------------------
// Minimal JSON parser (the serde shim is serialize-only) + trace validation
// ---------------------------------------------------------------------------

/// A minimal recursive-descent JSON parser, just enough for
/// `trace-report` and the CI trace smoke to re-read exported trace files
/// (the workspace's offline serde shim cannot parse).
pub mod json {
    /// A parsed JSON value. Object keys keep file order.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number, as `f64`.
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in file order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member lookup on an object (first match), else `None`.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The number, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }

        /// The string, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The elements, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    /// Parse one JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&mut self) -> Result<u8, String> {
            self.skip_ws();
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| "unexpected end of input".to_string())
        }

        fn expect(&mut self, b: u8) -> Result<(), String> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected '{}' at byte {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(v)
            } else {
                Err(format!("invalid literal at byte {}", self.pos))
            }
        }

        fn value(&mut self) -> Result<Value, String> {
            match self.peek()? {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.literal("true", Value::Bool(true)),
                b'f' => self.literal("false", Value::Bool(false)),
                b'n' => self.literal("null", Value::Null),
                _ => self.number(),
            }
        }

        fn object(&mut self) -> Result<Value, String> {
            self.expect(b'{')?;
            let mut members = Vec::new();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.expect(b':')?;
                members.push((key, self.value()?));
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                }
            }
        }

        fn array(&mut self) -> Result<Value, String> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(self.value()?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected string at byte {}", self.pos));
            }
            self.pos += 1;
            let mut out = String::new();
            loop {
                let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
                self.pos += 1;
                match b {
                    b'"' => return Ok(out),
                    b'\\' => {
                        let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let cp = self.hex4()?;
                                // Surrogate pairs: read the low half if present.
                                let c = if (0xD800..0xDC00).contains(&cp) {
                                    if self.bytes[self.pos..].starts_with(b"\\u") {
                                        self.pos += 2;
                                        let lo = self.hex4()?;
                                        let combined = 0x10000
                                            + ((cp - 0xD800) << 10)
                                            + (lo.wrapping_sub(0xDC00) & 0x3FF);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    char::from_u32(cp)
                                };
                                out.push(c.unwrap_or('\u{FFFD}'));
                            }
                            _ => return Err(format!("bad escape at byte {}", self.pos)),
                        }
                    }
                    _ => {
                        // Re-sync to char boundaries for multi-byte UTF-8.
                        let start = self.pos - 1;
                        let mut end = self.pos;
                        while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                            end += 1;
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| "invalid UTF-8 in string".to_string())?;
                        out.push_str(chunk);
                        self.pos = end;
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, String> {
            let chunk = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or("truncated \\u escape")?;
            self.pos += 4;
            let s = std::str::from_utf8(chunk).map_err(|_| "bad \\u escape".to_string())?;
            u32::from_str_radix(s, 16).map_err(|_| "bad \\u escape".to_string())
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| "bad number".to_string())?;
            s.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("bad number '{s}' at byte {start}"))
        }
    }
}

/// One event re-read from an exported Chrome trace file.
#[derive(Clone, Debug)]
pub struct ParsedEvent {
    /// Event name.
    pub name: String,
    /// Event category.
    pub cat: String,
    /// Phase: `"B"`, `"E"`, `"i"`, or `"M"`.
    pub ph: String,
    /// Timestamp in µs (0 for metadata).
    pub ts: f64,
    /// Track id.
    pub tid: u64,
    /// The CP sequence number from `args.cp`, when present.
    pub cp: Option<u64>,
    /// The raw `args` object.
    pub args: json::Value,
}

/// Parse an exported Chrome trace file into its event list.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedEvent>, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .ok_or("missing traceEvents array")?;
    let mut out = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_string();
        let args = ev
            .get("args")
            .cloned()
            .unwrap_or(json::Value::Obj(Vec::new()));
        out.push(ParsedEvent {
            name,
            cat: ev
                .get("cat")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_string(),
            ph,
            ts: ev.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0),
            tid: ev.get("tid").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64,
            cp: args.get("cp").and_then(|v| v.as_f64()).map(|v| v as u64),
            args,
        });
    }
    Ok(out)
}

/// Summary facts [`validate_chrome_trace`] proves about a trace file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Total events including metadata.
    pub events: usize,
    /// Matched begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Whether the CP-engine track metadata is present.
    pub engine_track: bool,
    /// Highest CP sequence number seen.
    pub max_cp: u64,
}

/// Validate a parsed trace: every `B` has a matching same-name `E` on its
/// track (in file order), CP sequence numbers never decrease within a
/// track, and the CP-engine track is named.
pub fn validate_chrome_trace(events: &[ParsedEvent]) -> Result<ChromeTraceStats, String> {
    let mut stats = ChromeTraceStats {
        events: events.len(),
        ..ChromeTraceStats::default()
    };
    let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> = std::collections::BTreeMap::new();
    let mut last_cp: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        match ev.ph.as_str() {
            "M" => {
                if ev.name == "thread_name" {
                    let track = ev.args.get("name").and_then(|v| v.as_str()).unwrap_or("");
                    if track == "cp-engine" {
                        stats.engine_track = true;
                    }
                }
                continue;
            }
            "B" => stacks.entry(ev.tid).or_default().push(&ev.name),
            "E" => {
                let stack = stacks.entry(ev.tid).or_default();
                match stack.pop() {
                    Some(open) if open == ev.name => stats.spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: end '{}' does not match open span '{open}' on tid {}",
                            ev.name, ev.tid
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: end '{}' with no open span on tid {}",
                            ev.name, ev.tid
                        ))
                    }
                }
            }
            "i" => stats.instants += 1,
            other => return Err(format!("event {i}: unexpected phase '{other}'")),
        }
        if let Some(cp) = ev.cp {
            let last = last_cp.entry(ev.tid).or_insert(cp);
            if cp < *last {
                return Err(format!(
                    "event {i}: cp {cp} after cp {last} on tid {} — not CP-ordered",
                    ev.tid
                ));
            }
            *last = cp;
            stats.max_cp = stats.max_cp.max(cp);
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed span '{open}' on tid {tid}"));
        }
    }
    if !stats.engine_track {
        return Err("missing cp-engine track metadata".to_string());
    }
    Ok(stats)
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
    fn chrome_export_round_trips_and_validates() {
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

        let json_text = chrome_trace_json(&t.events());
        let parsed = parse_chrome_trace(&json_text).expect("trace parses");
        let stats = validate_chrome_trace(&parsed).expect("trace validates");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.instants, 3);
        assert!(stats.engine_track);
        assert_eq!(stats.max_cp, 1);
        // A file that never names the engine track is rejected.
        let unnamed: Vec<ParsedEvent> = parsed
            .iter()
            .filter(|e| e.name != "thread_name")
            .cloned()
            .collect();
        assert!(validate_chrome_trace(&unnamed).is_err());
    }

    #[test]
    fn overlapping_same_track_spans_are_clipped_not_broken() {
        let reg = Registry::new();
        let t = Tracer::new(8, &reg);
        // Two spans that overlap without nesting.
        t.emit_at(0.0, 0, span("mount.topaa", 10.0));
        t.emit_at(5.0, 0, span("mount.cold", 10.0));
        let json_text = chrome_trace_json(&t.events());
        let parsed = parse_chrome_trace(&json_text).expect("trace parses");
        let stats = validate_chrome_trace(&parsed).expect("clipped trace validates");
        assert_eq!(stats.spans, 2);
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
        let json_text = chrome_trace_json(&t.events());
        let parsed = parse_chrome_trace(&json_text).expect("trace parses");
        validate_chrome_trace(&parsed).expect("cp-major order validates");
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
            series.to_json(),
            "{\"columns\":[\"cp\",\"ops\",\"lat.sum\",\"free\"],\
             \"rows\":[[0,3,2,0.5],[1,4,1,0.25]]}"
        );
        assert_eq!(
            series.to_csv(),
            "cp,ops,lat.sum,free\n0,3,2,0.5\n1,4,1,0.25\n"
        );
    }

    #[test]
    fn json_parser_handles_the_exporter_grammar() {
        let v =
            json::parse("{\"a\":[1,2.5,-3e2],\"s\":\"he\\\"llo\\u0041\",\"b\":true,\"n\":null}")
                .expect("parses");
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("s").unwrap().as_str(), Some("he\"lloA"));
        assert_eq!(v.get("b"), Some(&json::Value::Bool(true)));
        assert_eq!(v.get("n"), Some(&json::Value::Null));
        assert!(json::parse("{\"a\":}").is_err());
        assert!(json::parse("[1,2").is_err());
        assert!(json::parse("[] trailing").is_err());
    }
}
