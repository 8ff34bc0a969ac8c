//! In-memory span recorder for the traced run. Spans are taken from the
//! benchmark's own files, around the calls into each layer, kept in a
//! `Vec` and written out once at exit.

use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; `None` while recording is off.
pub type SpanId = Option<u32>;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    /// What the spans of one CP round / mount cycle share.
    id: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Whether spans are kept right now. The traced run flips this per
    /// block of rounds, so one process yields both the traced and the
    /// untraced throughput (`bench.trace_overhead_fraction`).
    pub recording: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            recording: false,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Open a parent span whose end is not known yet.
    pub fn open(&mut self, name: &'static str, start: Instant, id: u64) -> SpanId {
        self.span(name, start, start, None, id)
    }

    pub fn close(&mut self, span: SpanId, end: Instant) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.ns(end);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON array, one span per line. `parent` refers to another
    /// span's `index`; a parent's self time is its duration minus its
    /// children's.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"index\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        writeln!(out, "]")
    }
}
