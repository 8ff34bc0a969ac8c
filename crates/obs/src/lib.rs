//! Lightweight observability primitives for the allocator pipeline.
//!
//! The paper's claims are quantitative — the HBPS-chosen AA stays within
//! one bin width of the true best, CP-boundary rebalances stay cheap,
//! TopAA makes first-CP time size-independent — and this crate is how the
//! rest of the workspace watches those quantities live. A [`Registry`]
//! hands out three kinds of named instruments:
//!
//! * [`Counter`] — monotonically increasing `u64` (events, blocks, pages);
//! * [`Gauge`] — a last-written `f64` (fractions, occupancy);
//! * [`Histogram`] — fixed upper-bound buckets over `f64` observations,
//!   with running count, sum, and max.
//!
//! Instruments are cheap handles (an `Arc` around atomics) that can be
//! cloned out of the registry once and bumped from hot paths without a
//! lock; the registry mutex is touched only at registration and snapshot
//! time. All updates are relaxed atomic read-modify-writes, so handles
//! are safe to bump concurrently from several threads — no increment is
//! ever lost, though cross-instrument ordering is unspecified while they
//! run (the CP itself runs on its caller's thread; snapshots are taken
//! at CP boundaries). [`Registry::snapshot_json`] renders everything as one
//! deterministic JSON object so harness reports can embed a metrics block
//! and tests can look for a metric's name in it.
//!
//! Nothing in the metrics layer reads a clock: durations recorded through
//! counters/gauges/histograms come from the workspace's simulated cost
//! model, never `std::time`, so hot paths stay deterministic and
//! wall-clock-free. The [`trace`] flight recorder is the one deliberate
//! exception: it stamps journal events from a monotonic clock anchored at
//! tracer creation, purely for export — trace timestamps never feed back
//! into the simulation.

#![warn(missing_docs)]

pub mod trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Registry-wide counter of NaN observations dropped by
/// [`Histogram::observe`] (see the skip-and-count note there).
pub const NAN_OBSERVATIONS: &str = "obs.nan_observations";

/// A monotonically increasing event counter.
///
/// Cloning shares the underlying cell; increments are relaxed atomics so a
/// counter can be bumped from `&self` contexts (e.g. audits over an
/// immutable aggregate) and from several threads at once.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn inc(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an atomic).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the gauge with `v`.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first `set`).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Ascending bucket upper bounds; an implicit `+inf` bucket follows.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket at the end.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum of observations, stored as `f64` bits (CAS loop).
    sum_bits: AtomicU64,
    /// Largest observation so far, stored as `f64` bits (CAS loop).
    max_bits: AtomicU64,
    /// The registry-wide [`NAN_OBSERVATIONS`] counter, bumped for every
    /// dropped NaN observation.
    nan: Counter,
}

/// A fixed-bucket histogram over `f64` observations.
///
/// Buckets are cumulative-style upper bounds chosen at registration; an
/// implicit unbounded bucket catches everything above the last bound. The
/// running `sum`, `count`, and `max` make means and worst-cases readable
/// without bucket arithmetic — `max` in particular is what the obs smoke
/// test asserts against for the chosen-score error bound.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[f64], nan: Counter) -> Histogram {
        let mut b: Vec<f64> = bounds.iter().copied().filter(|x| x.is_finite()).collect();
        b.sort_by(|x, y| x.partial_cmp(y).expect("finite bounds"));
        b.dedup();
        let counts = (0..b.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: b,
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            nan,
        }))
    }

    /// Record one observation.
    ///
    /// NaN observations are skipped and counted instead of recorded: a
    /// single NaN would fail every bound comparison (landing in the
    /// overflow bucket) and then permanently poison `sum`/`mean` through
    /// the CAS loop — `NaN + x` is NaN forever after. Dropped NaNs bump
    /// the registry-wide [`NAN_OBSERVATIONS`] counter first and
    /// `debug_assert!` so debug builds surface the emitting call site.
    pub fn observe(&self, v: f64) {
        let inner = &*self.0;
        if v.is_nan() {
            inner.nan.inc(1);
            debug_assert!(
                false,
                "NaN histogram observation dropped ({NAN_OBSERVATIONS})"
            );
            return;
        }
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        fetch_update_f64(&inner.sum_bits, |cur| cur + v);
        fetch_update_f64(&inner.max_bits, |cur| cur.max(v));
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Largest observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            f64::from_bits(self.0.max_bits.load(Ordering::Relaxed))
        }
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Bucket upper bounds (without the implicit `+inf` bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.0.bounds
    }

    /// Per-bucket counts; one entry per bound plus the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Bucket-interpolated quantile estimate (Prometheus-style).
    ///
    /// Walks the cumulative bucket counts to the bucket containing rank
    /// `q * count` and interpolates linearly inside it, taking `0.0` as
    /// the lower edge of the first bucket (every histogram in this
    /// workspace observes non-negative µs/count/width values). Ranks that
    /// land in the unbounded overflow bucket report [`Histogram::max`],
    /// the only upper edge that bucket has. Returns `0.0` when empty;
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let bounds = self.bounds();
        let mut cum = 0u64;
        for (i, c) in self.bucket_counts().into_iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c;
            if next as f64 >= rank {
                if i >= bounds.len() {
                    return self.max();
                }
                let lo = if i == 0 { 0.0 } else { bounds[i - 1] };
                let hi = bounds[i];
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            cum = next;
        }
        self.max()
    }
}

/// Relaxed CAS-loop read-modify-write on an `f64` stored as bits.
fn fetch_update_f64(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => cur = observed,
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of instruments.
///
/// Cloning shares the collection, so one registry can be threaded through
/// every layer of the allocator pipeline and snapshotted from the harness.
/// Registration is idempotent: asking for an existing name returns the
/// existing instrument (for histograms the original bounds win).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name` with the given bucket
    /// upper bounds (ignored if the histogram already exists).
    ///
    /// Creating the first histogram also registers the shared
    /// [`NAN_OBSERVATIONS`] counter every histogram reports dropped NaN
    /// observations to.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = self.inner.lock().expect("obs registry poisoned");
        let nan = inner
            .counters
            .entry(NAN_OBSERVATIONS.to_string())
            .or_default()
            .clone();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds, nan))
            .clone()
    }

    /// Value of the counter named `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.lock().expect("obs registry poisoned");
        inner.counters.get(name).map(|c| c.get())
    }

    /// Value of the gauge named `name`, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.lock().expect("obs registry poisoned");
        inner.gauges.get(name).map(|g| g.get())
    }

    /// The histogram named `name`, if registered.
    pub fn histogram_handle(&self, name: &str) -> Option<Histogram> {
        let inner = self.inner.lock().expect("obs registry poisoned");
        inner.histograms.get(name).cloned()
    }

    /// Render every instrument as one compact, deterministic JSON object:
    ///
    /// ```json
    /// {"counters":{..},"gauges":{..},
    ///  "histograms":{"name":{"bounds":[..],"counts":[..],
    ///                        "count":n,"sum":s,"max":m,"mean":a,
    ///                        "p50":q,"p95":q,"p99":q}}}
    /// ```
    ///
    /// Keys are sorted (BTreeMap order); floats render via `to_string`,
    /// with non-finite values mapped to `null` like the serde shim does.
    pub fn snapshot_json(&self) -> String {
        let inner = self.inner.lock().expect("obs registry poisoned");
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        push_entries(&mut out, inner.counters.iter(), |out, c| {
            out.push_str(&c.get().to_string());
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, inner.gauges.iter(), |out, g| {
            push_f64(out, g.get());
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, inner.histograms.iter(), |out, h| {
            out.push_str("{\"bounds\":[");
            for (i, b) in h.bounds().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *b);
            }
            out.push_str("],\"counts\":[");
            for (i, c) in h.bucket_counts().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
            }
            out.push_str("],\"count\":");
            out.push_str(&h.count().to_string());
            out.push_str(",\"sum\":");
            push_f64(out, h.sum());
            out.push_str(",\"max\":");
            push_f64(out, h.max());
            out.push_str(",\"mean\":");
            push_f64(out, h.mean());
            out.push_str(",\"p50\":");
            push_f64(out, h.quantile(0.50));
            out.push_str(",\"p95\":");
            push_f64(out, h.quantile(0.95));
            out.push_str(",\"p99\":");
            push_f64(out, h.quantile(0.99));
            out.push('}');
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, T: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a T)>,
    write_value: impl Fn(&mut String, &T),
) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        push_json_string(out, name);
        out.push(':');
        write_value(out, value);
    }
}

pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else {
        out.push_str("null");
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = Registry::new();
        let a = reg.counter("x.events");
        let b = reg.counter("x.events"); // same instrument
        a.inc(3);
        b.inc(2);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.counter_value("x.events"), Some(5));
        assert_eq!(reg.counter_value("missing"), None);
    }

    #[test]
    fn gauges_last_write_wins() {
        let reg = Registry::new();
        let g = reg.gauge("free_fraction");
        assert_eq!(g.get(), 0.0);
        g.set(0.25);
        g.set(0.75);
        assert_eq!(reg.gauge_value("free_fraction"), Some(0.75));
    }

    #[test]
    fn histogram_buckets_count_sum_max() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 5.0, 50.0, 500.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 2, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 560.5);
        assert_eq!(h.max(), 500.0);
        assert!((h.mean() - 112.1).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zero_max() {
        let reg = Registry::new();
        let h = reg.histogram("empty", &[1.0]);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_reregistration_keeps_original_bounds() {
        let reg = Registry::new();
        let a = reg.histogram("h", &[1.0, 2.0]);
        let b = reg.histogram("h", &[99.0]);
        assert_eq!(a.bounds(), b.bounds());
        assert_eq!(b.bounds(), &[1.0, 2.0]);
    }

    #[test]
    fn observation_above_all_bounds_lands_in_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[1.0]);
        h.observe(2.0);
        assert_eq!(h.bucket_counts(), vec![0, 1]);
    }

    #[test]
    fn snapshot_is_deterministic_sorted_json() {
        let reg = Registry::new();
        reg.counter("b.second").inc(2);
        reg.counter("a.first").inc(1);
        reg.gauge("g").set(1.5);
        let h = reg.histogram("h", &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(3.0);
        let json = reg.snapshot_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"b.second\":2,\"obs.nan_observations\":0},\
             \"gauges\":{\"g\":1.5},\
             \"histograms\":{\"h\":{\"bounds\":[1,2],\"counts\":[1,0,1],\
             \"count\":2,\"sum\":3.5,\"max\":3,\"mean\":1.75,\
             \"p50\":1,\"p95\":3,\"p99\":3}}}"
        );
        assert_eq!(json, reg.snapshot_json());
    }

    #[test]
    fn cloned_registry_shares_instruments() {
        let reg = Registry::new();
        let clone = reg.clone();
        reg.counter("shared").inc(7);
        assert_eq!(clone.counter_value("shared"), Some(7));
    }

    #[test]
    fn handles_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }

    /// Concurrent increments from several threads lose nothing.
    #[test]
    fn counters_survive_contended_increments() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 10_000;
        let reg = Registry::new();
        let c = reg.counter("contended.events");
        let h = reg.histogram("contended.lat", &[10.0]);
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (c, h) = (c.clone(), h.clone());
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc(1);
                        h.observe(1.0);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), THREADS * PER_THREAD);
        assert_eq!(h.count(), THREADS * PER_THREAD);
        assert_eq!(h.sum(), (THREADS * PER_THREAD) as f64);
        assert_eq!(h.bucket_counts(), vec![THREADS * PER_THREAD, 0]);
    }

    /// Regression: a NaN observation used to land in the overflow bucket
    /// and poison `sum`/`mean` permanently through the CAS loop. It is
    /// now skipped and counted (and asserts in debug builds so the
    /// emitting site is findable).
    #[test]
    fn nan_observation_is_skipped_and_counted() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[1.0, 10.0]);
        h.observe(0.5);
        let observe_nan = {
            let h = h.clone();
            move || h.observe(f64::NAN)
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(observe_nan));
        // The debug_assert fires in debug builds; release builds drop the
        // observation silently. The counter is bumped before the assert,
        // so state is identical either way.
        assert_eq!(outcome.is_err(), cfg!(debug_assertions));
        assert_eq!(reg.counter_value(NAN_OBSERVATIONS), Some(1));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 0.5);
        assert_eq!(h.max(), 0.5);
        assert_eq!(h.bucket_counts(), vec![1, 0, 0]);
        // Later observations still work: the histogram was not poisoned.
        h.observe(2.0);
        assert_eq!(h.sum(), 2.5);
        assert!((h.mean() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q", &[10.0, 100.0]);
        assert_eq!(h.quantile(0.5), 0.0); // empty
        for _ in 0..90 {
            h.observe(5.0); // bucket [0, 10]
        }
        for _ in 0..10 {
            h.observe(50.0); // bucket (10, 100]
        }
        // p50: rank 50 inside the first bucket -> 10 * 50/90.
        assert!((h.quantile(0.50) - 10.0 * (50.0 / 90.0)).abs() < 1e-9);
        // p95: rank 95, 5 observations into the second bucket of 10.
        assert!((h.quantile(0.95) - (10.0 + 90.0 * 0.5)).abs() < 1e-9);
        // p90 boundary lands exactly on the first bucket's upper edge.
        assert!((h.quantile(0.90) - 10.0).abs() < 1e-9);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_max() {
        let reg = Registry::new();
        let h = reg.histogram("q", &[1.0]);
        h.observe(0.5);
        h.observe(250.0);
        h.observe(500.0);
        assert_eq!(h.quantile(0.99), 500.0);
        assert!((h.quantile(0.30) - 0.9).abs() < 1e-9); // rank 0.9 of 1 obs in [0,1]
    }
}
