//! The closed loop: one client issues a CP's worth of ops, runs the CP,
//! and only then generates the next batch.
//!
//! Timing rule: op streams are generated per CP batch into a reusable
//! buffer *outside* the timed spans. Busy time is the sum of the intake
//! spans and the `run_cp` spans (plus the save/crash/mount/rebuild spans
//! of a mount cycle); every rate the benchmark reports divides by busy
//! time, never by the wall time of the window.

use crate::stats::derive_seed;
use crate::trace::Tracer;
use crate::workloads::{apply, Kind, Ready, Stream, MOUNT_BATCH};
use std::time::{Duration, Instant};
use wafl_fs::mount::{self, MountStats};
use wafl_fs::{Aggregate, CpStats};
use wafl_types::Vbn;
use wafl_workloads::Op;

/// Rounds (or mount cycles) per block of the traced run: blocks
/// alternate between recording spans and running exactly like the
/// untraced run.
const TRACE_BLOCK: u64 = 16;
/// On the workloads that are not `mount_cycle`, one mount cycle follows
/// every this many rounds, so `mount_ready_ms` is sampled on every
/// workload's file system, all along the window. Not a multiple of
/// `2 * TRACE_BLOCK`: the rounds right after a remount run slower, and
/// must fall into recording and plain blocks alike.
const MOUNT_EVERY: u64 = 40;
/// ... and at least this many TopAA mounts, however short the window.
const MIN_TOPAA_MOUNTS: usize = 3;
/// `write_amplification` is read once the window has issued this many
/// writes and deletes (at the end of the window if it never does). It is
/// the mean since set-up, and the FTL's write amplification rises all
/// through the warm-up, so the mean over a window whose length is the
/// host's would rise with the host's speed; at a fixed count it depends
/// on the seed alone.
const WA_MUTATIONS: u64 = 4 << 20;
/// Mappings compared before the crash and after the mount, per cycle.
const MOUNT_SAMPLE: u64 = 64;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// What the timed window accumulated.
#[derive(Default)]
pub struct Window {
    /// Client ops issued (reads included) and the reads among them.
    pub ops: u64,
    pub reads: u64,
    /// Client ops, CPs and mount-path calls attempted / that returned
    /// an error or failed a before/after comparison.
    pub attempted: u64,
    pub failed: u64,
    pub gen_ns: u64,
    pub intake_ns: u64,
    pub cp_ns: u64,
    /// save_topaa + crash + mount + background rebuild (mount cycles).
    pub mount_ns: u64,
    /// Busy time and ops by block kind: `[untraced, traced]`.
    pub busy_ns: [u64; 2],
    pub block_ops: [u64; 2],
    /// Separate read and write/delete passes (traced blocks only).
    pub read_ns: u64,
    pub reads_timed: u64,
    pub write_ns: u64,
    pub writes_timed: u64,
    /// Wall time of every `run_cp`, ms.
    pub cp_wall_ms: Vec<f64>,
    /// Client ops and busy ns of every round (cycle), in order.
    pub rounds: Vec<(u64, u64)>,
    /// Sum of the `CpStats` the CPs returned.
    pub cp: CpStats,
    /// `mean_write_amplification` after `WA_MUTATIONS` writes+deletes.
    pub write_amplification: Option<f64>,
}

impl Window {
    pub fn busy_s(&self) -> f64 {
        (self.busy_ns[0] + self.busy_ns[1]) as f64 / 1e9
    }
}

/// Wall times (ms) of each mount-path call, one sample per cycle, and
/// the model's view of the same mounts.
#[derive(Default)]
pub struct MountSamples {
    pub save_ms: Vec<f64>,
    pub topaa_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    pub first_cp_ms: Vec<f64>,
    pub rebuild_ms: Vec<f64>,
    /// TopAA mount + the first batch's intake + the first CP.
    pub ready_ms: Vec<f64>,
    /// Structures that fell back to a bitmap walk, over all TopAA mounts.
    pub degraded: u64,
    pub topaa_stats: MountStats,
    pub cold_stats: MountStats,
}

pub struct Bench {
    pub kind: Kind,
    pub agg: Aggregate,
    pub stream: Stream,
    pub tracer: Tracer,
    pub win: Window,
    pub mounts: MountSamples,
    buf: Vec<Op>,
    next_buf: Vec<Op>,
    /// Rounds and mount cycles so far, and the mount cycles among them.
    rounds: u64,
    cycles: u64,
}

/// Issue the selected ops of a batch; returns how many failed.
fn issue<const READS: bool, const MUTATIONS: bool>(agg: &mut Aggregate, ops: &[Op]) -> u64 {
    let mut failed = 0;
    for &op in ops {
        let selected = match op {
            Op::Read { .. } => READS,
            Op::Write { .. } | Op::Delete { .. } => MUTATIONS,
        };
        if selected && apply(agg, op).is_err() {
            failed += 1;
        }
    }
    failed
}

/// Free counts and a sample of mappings: must read the same before a
/// crash and after the mount that follows it.
fn fingerprint(agg: &Aggregate, cycle: u64) -> Vec<u64> {
    let vols = agg.volumes();
    let mut out = vec![agg.bitmap().free_blocks()];
    out.extend(vols.iter().map(|v| v.free_blocks()));
    for i in 0..MOUNT_SAMPLE {
        let r = derive_seed(cycle, i);
        let vol = &vols[(r % vols.len() as u64) as usize];
        let vvbn = vol.lookup_logical((r >> 20) % vol.logical_blocks());
        let pvbn = vvbn.and_then(|v| vol.lookup_vvbn(v));
        out.push(vvbn.map_or(u64::MAX, Vbn::get));
        out.push(pvbn.map_or(u64::MAX, Vbn::get));
    }
    out
}

impl Bench {
    pub fn new(kind: Kind, ready: Ready) -> Bench {
        Bench {
            kind,
            agg: ready.agg,
            stream: ready.stream,
            tracer: Tracer::new(),
            win: Window::default(),
            mounts: MountSamples::default(),
            buf: Vec::new(),
            next_buf: Vec::new(),
            rounds: 0,
            cycles: 0,
        }
    }

    /// Forget what has been measured so far (end of warm-up).
    pub fn reset(&mut self) {
        self.win = Window::default();
        self.mounts = MountSamples::default();
    }

    /// Run rounds (mount cycles on `mount_cycle`) for `seconds` of wall
    /// time. With `trace`, alternate blocks record spans.
    pub fn run_window(&mut self, seconds: f64, trace: bool) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            self.tracer.recording = trace && (self.rounds / TRACE_BLOCK) % 2 == 1;
            match self.kind {
                Kind::MountCycle => self.mount_cycle(true),
                _ if self.rounds % MOUNT_EVERY == MOUNT_EVERY - 1 => self.mount_cycle(false),
                _ => self.round(),
            }
        }
        self.tracer.recording = trace;
        while self.mounts.ready_ms.len() < MIN_TOPAA_MOUNTS {
            self.mount_cycle(self.kind == Kind::MountCycle);
        }
    }

    fn record_cp(&mut self, cp: CpStats, wall: Duration) {
        self.win.cp.accumulate(&cp);
        self.win.cp_wall_ms.push(wall.as_secs_f64() * 1e3);
    }

    /// generate → intake → run_cp.
    pub fn round(&mut self) {
        let id = self.rounds;
        self.rounds += 1;
        let traced = self.tracer.recording;

        let t0 = Instant::now();
        let batch = self.stream.fill(&mut self.buf, self.kind.ops_per_cp());
        let t1 = Instant::now();
        let root = self.tracer.open("cp_round", t0, id);
        self.tracer.span("generate", t0, t1, root, id);

        let mut failed;
        let t2;
        if traced {
            // Reads see only committed mappings and writes only queue
            // for the CP, so the two passes leave the same state as the
            // interleaved batch — and cost two clock reads per batch
            // where per-op clocks would cost more than the ops.
            failed = issue::<true, false>(&mut self.agg, &self.buf);
            let mid = Instant::now();
            failed += issue::<false, true>(&mut self.agg, &self.buf);
            t2 = Instant::now();
            let intake = self.tracer.span("intake", t1, t2, root, id);
            self.tracer.span("intake.read", t1, mid, intake, id);
            self.tracer.span("intake.write", mid, t2, intake, id);
            self.win.read_ns += ns(mid - t1);
            self.win.reads_timed += batch.reads;
            self.win.write_ns += ns(t2 - mid);
            self.win.writes_timed += batch.mutations;
        } else {
            failed = issue::<true, true>(&mut self.agg, &self.buf);
            t2 = Instant::now();
        }
        let cp = self.agg.run_cp();
        let t3 = Instant::now();
        self.tracer.span("run_cp", t2, t3, root, id);
        self.tracer.close(root, t3);

        let ops = self.buf.len() as u64;
        let w = &mut self.win;
        w.ops += ops;
        w.reads += batch.reads;
        w.attempted += ops + 1;
        w.gen_ns += ns(t1 - t0);
        w.intake_ns += ns(t2 - t1);
        w.cp_ns += ns(t3 - t2);
        w.busy_ns[traced as usize] += ns(t3 - t1);
        w.block_ops[traced as usize] += ops;
        w.rounds.push((ops, ns(t3 - t1)));
        match cp {
            Ok(cp) => self.record_cp(cp, t3 - t2),
            Err(_) => failed += 1,
        }
        self.win.failed += failed;
        if self.win.write_amplification.is_none() && self.win.ops - self.win.reads >= WA_MUTATIONS {
            self.win.write_amplification = Some(self.agg.mean_write_amplification());
        }
    }

    /// writes → CP → save_topaa → crash → mount → writes → first CP →
    /// background rebuild. Three cycles in four mount from the TopAA
    /// image, every fourth cold. With `in_window` (the `mount_cycle`
    /// workload) the cycle's ops, CPs and busy time count towards the
    /// window; the mount samples are kept either way.
    pub fn mount_cycle(&mut self, in_window: bool) {
        let id = self.rounds;
        self.rounds += 1;
        let traced = self.tracer.recording;
        let cold = self.cycles % 4 == 3;
        self.cycles += 1;

        let t0 = Instant::now();
        let reads = self.stream.fill(&mut self.buf, MOUNT_BATCH).reads
            + self.stream.fill(&mut self.next_buf, MOUNT_BATCH).reads;
        let t1 = Instant::now();
        let root = self.tracer.open("cycle", t0, id);
        self.tracer.span("generate", t0, t1, root, id);

        let mut failed = issue::<true, true>(&mut self.agg, &self.buf);
        let t2 = Instant::now();
        let cp = self.agg.run_cp();
        let t3 = Instant::now();
        let before = fingerprint(&self.agg, id);

        let t4 = Instant::now();
        let image = mount::save_topaa(&self.agg);
        let t5 = Instant::now();
        mount::crash(&mut self.agg);
        let t6 = Instant::now();
        // `mount_auto` is `mount_with_topaa` that degrades per structure
        // instead of failing: an aged volume's HBPS image is now and
        // then rejected by the very code that wrote it (a finding of
        // this benchmark, see the README; `fs.mount_degraded_fraction`).
        let mounted = if cold {
            mount::mount_cold(&mut self.agg)
        } else {
            Ok(mount::mount_auto(&mut self.agg, &image))
        };
        let t7 = Instant::now();
        failed += (fingerprint(&self.agg, id) != before) as u64;

        let t8 = Instant::now();
        failed += issue::<true, true>(&mut self.agg, &self.next_buf);
        let t9 = Instant::now();
        let first_cp = self.agg.run_cp();
        let t10 = Instant::now();
        let rebuilt = mount::complete_background_rebuild(&mut self.agg);
        let t11 = Instant::now();

        let t = &mut self.tracer;
        t.span("intake", t1, t2, root, id);
        t.span("run_cp", t2, t3, root, id);
        t.span("save_topaa", t4, t5, root, id);
        t.span("crash", t5, t6, root, id);
        t.span(
            if cold { "mount_cold" } else { "mount_topaa" },
            t6,
            t7,
            root,
            id,
        );
        t.span("first_intake", t8, t9, root, id);
        t.span("first_cp", t9, t10, root, id);
        t.span("background_rebuild", t10, t11, root, id);
        t.close(root, t11);

        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let m = &mut self.mounts;
        m.save_ms.push(ms(t5 - t4));
        m.first_cp_ms.push(ms(t10 - t9));
        m.rebuild_ms.push(ms(t11 - t10));
        match mounted {
            Ok(stats) if cold => {
                m.cold_ms.push(ms(t7 - t6));
                m.cold_stats = stats;
            }
            Ok(stats) => {
                m.topaa_ms.push(ms(t7 - t6));
                m.ready_ms.push(ms(t7 - t6) + ms(t10 - t8));
                m.degraded += stats.degraded.len() as u64;
                if stats.degraded.is_empty() {
                    m.topaa_stats = stats;
                }
            }
            Err(_) => failed += 1,
        }
        failed += rebuilt.is_err() as u64;

        let ops = (self.buf.len() + self.next_buf.len()) as u64;
        // The ops, two CPs, the mount and the rebuild.
        self.win.attempted += ops + 4;
        if !in_window {
            // Only the cycle's failures count against the run.
            failed += cp.is_err() as u64 + first_cp.is_err() as u64;
            self.win.failed += failed;
            return;
        }
        let mount_ns = ns(t7 - t4) + ns(t11 - t10);
        let w = &mut self.win;
        if traced {
            w.write_ns += ns(t2 - t1) + ns(t9 - t8);
            w.writes_timed += ops - reads;
        }
        w.ops += ops;
        w.reads += reads;
        w.gen_ns += ns(t1 - t0);
        w.intake_ns += ns(t2 - t1) + ns(t9 - t8);
        w.cp_ns += ns(t3 - t2) + ns(t10 - t9);
        w.mount_ns += mount_ns;
        let busy = ns(t3 - t1) + ns(t10 - t8) + mount_ns;
        w.busy_ns[traced as usize] += busy;
        w.block_ops[traced as usize] += ops;
        w.rounds.push((ops, busy));
        for (cp, wall) in [(cp, t3 - t2), (first_cp, t10 - t9)] {
            match cp {
                Ok(cp) => self.record_cp(cp, wall),
                Err(_) => failed += 1,
            }
        }
        self.win.failed += failed;
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
