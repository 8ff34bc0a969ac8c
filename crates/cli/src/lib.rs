//! `wafl-sim` — command-line driver for the WAFL free-block-search
//! simulator.
//!
//! Subcommands:
//!
//! * `simulate` — build an aggregate, age it, run a workload, and print
//!   the §4-style measurements (pick quality, write amplification,
//!   metafile pages per op, full-stripe fraction, per-op CPU). With
//!   `--trace FILE` the flight recorder journals every CP of the run —
//!   the fill and churn CPs as well as the measured ones — and exports
//!   the journal as Chrome trace-event JSON plus a per-CP time-series
//!   CSV.
//! * `trace-report` — read a per-CP series CSV and print per-stage wall
//!   quantiles and the scrub/health timeline.
//! * `mount-bench` — the Figure 10 comparison for one configuration.
//! * `help` — usage.
//!
//! Argument parsing is hand-rolled (no CLI dependency); every option has
//! a default so `wafl-sim simulate` alone produces something meaningful.

#![warn(missing_docs)]

use std::collections::HashMap;
use wafl_fs::{aging, iron, mount, Aggregate, AggregateConfig, FlexVolConfig, RaidGroupSpec};
use wafl_media::MediaProfile;
use wafl_obs::trace::{chrome_events, render_chrome_trace, validate_chrome_trace};
use wafl_types::{MediaType, VolumeId, WaflError, WaflResult};
use wafl_workloads::{FileChurn, OltpMix, RandomOverwrite, SequentialWrite, Workload};

/// Parsed options for the `simulate` subcommand.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateOpts {
    /// Media family for every device.
    pub media: MediaType,
    /// Data devices in the RAID group.
    pub devices: u32,
    /// Parity devices.
    pub parity: u32,
    /// Blocks per device.
    pub device_blocks: u64,
    /// Fill fraction before measurement.
    pub fill: f64,
    /// Churn multiple of the working set applied before measurement.
    pub churn: f64,
    /// Workload kind: `overwrite`, `oltp`, `sequential`, `churn`.
    pub workload: String,
    /// Measured operations.
    pub ops: u64,
    /// Operations per consistency point.
    pub ops_per_cp: usize,
    /// Disable the RAID-aware (aggregate) AA cache.
    pub no_agg_cache: bool,
    /// Disable the FlexVol (HBPS) AA cache.
    pub no_vol_cache: bool,
    /// Route frees through the delayed-free log.
    pub batched_frees: bool,
    /// Forward frees to SSD FTLs as TRIMs.
    pub trim: bool,
    /// Run the Iron consistency check after the workload.
    pub check: bool,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Online-scrub budget: verification units per CP (0 disables).
    pub scrub: u64,
    /// Journal every CP of the run, from the fill on, and write it to
    /// this path as Chrome trace-event JSON (plus `<path>.series.csv` for
    /// the per-CP time series). Tracing stays off when absent.
    pub trace: Option<String>,
    /// Flight-recorder journal capacity in events (only meaningful with
    /// `--trace`).
    pub trace_capacity: usize,
}

impl Default for SimulateOpts {
    fn default() -> SimulateOpts {
        SimulateOpts {
            media: MediaType::Ssd,
            devices: 4,
            parity: 1,
            device_blocks: 512 * 120,
            fill: 0.55,
            churn: 1.5,
            workload: "overwrite".into(),
            ops: 50_000,
            ops_per_cp: 2048,
            no_agg_cache: false,
            no_vol_cache: false,
            batched_frees: false,
            trim: false,
            check: false,
            json: false,
            scrub: 0,
            trace: None,
            trace_capacity: 65_536,
        }
    }
}

/// Parsed options for `mount-bench`.
#[derive(Clone, Debug, PartialEq)]
pub struct MountBenchOpts {
    /// Number of FlexVols.
    pub vols: u64,
    /// Virtual blocks per volume.
    pub vol_blocks: u64,
    /// Blocks per device of the (HDD) RAID group.
    pub device_blocks: u64,
}

impl Default for MountBenchOpts {
    fn default() -> MountBenchOpts {
        MountBenchOpts {
            vols: 10,
            vol_blocks: 8 * 32768,
            device_blocks: 64 * 4096,
        }
    }
}

/// Parsed options for `trace-report`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceReportOpts {
    /// Path of the per-CP series CSV (`FILE.series.csv`) to analyse.
    pub path: String,
}

/// A parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `simulate` with options.
    Simulate(SimulateOpts),
    /// `trace-report` with options.
    TraceReport(TraceReportOpts),
    /// `mount-bench` with options.
    MountBench(MountBenchOpts),
    /// `help` (or parse failure, with the message to show).
    Help(Option<String>),
}

fn parse_kv(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument '{a}'"));
        };
        // Flags without values.
        match key {
            "no-agg-cache" | "no-vol-cache" | "batched-frees" | "trim" | "check" | "json" => {
                map.insert(key.to_string(), "true".into());
                i += 1;
            }
            _ => {
                let Some(v) = args.get(i + 1) else {
                    return Err(format!("--{key} needs a value"));
                };
                map.insert(key.to_string(), v.clone());
                i += 2;
            }
        }
    }
    Ok(map)
}

fn get<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match map.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse '{v}'")),
    }
}

/// Parse a full command line (excluding `argv[0]`).
pub fn parse(args: &[String]) -> Command {
    let Some((cmd, rest)) = args.split_first() else {
        return Command::Help(None);
    };
    let parse_result = (|| -> Result<Command, String> {
        match cmd.as_str() {
            "simulate" => {
                let kv = parse_kv(rest)?;
                let mut o = SimulateOpts::default();
                o.media = match kv.get("media").map(String::as_str) {
                    None | Some("ssd") => MediaType::Ssd,
                    Some("hdd") => MediaType::Hdd,
                    Some("smr") => MediaType::Smr,
                    Some("object") => MediaType::ObjectStore,
                    Some(other) => return Err(format!("unknown media '{other}'")),
                };
                o.devices = get(&kv, "devices", o.devices)?;
                o.parity = get(&kv, "parity", o.parity)?;
                o.device_blocks = get(&kv, "device-blocks", o.device_blocks)?;
                o.fill = get(&kv, "fill", o.fill)?;
                o.churn = get(&kv, "churn", o.churn)?;
                o.workload = get(&kv, "workload", o.workload.clone())?;
                o.ops = get(&kv, "ops", o.ops)?;
                o.ops_per_cp = get(&kv, "ops-per-cp", o.ops_per_cp)?;
                o.no_agg_cache = kv.contains_key("no-agg-cache");
                o.no_vol_cache = kv.contains_key("no-vol-cache");
                o.batched_frees = kv.contains_key("batched-frees");
                o.trim = kv.contains_key("trim");
                o.check = kv.contains_key("check");
                o.json = kv.contains_key("json");
                o.scrub = get(&kv, "scrub", o.scrub)?;
                o.trace = kv.get("trace").cloned();
                o.trace_capacity = get(&kv, "trace-capacity", o.trace_capacity)?;
                if o.trace_capacity == 0 {
                    return Err("--trace-capacity must be >= 1".to_string());
                }
                if !["overwrite", "oltp", "sequential", "churn"].contains(&o.workload.as_str()) {
                    return Err(format!("unknown workload '{}'", o.workload));
                }
                Ok(Command::Simulate(o))
            }
            "trace-report" => {
                let Some((path, flags)) = rest.split_first() else {
                    return Err("trace-report needs a series CSV path".to_string());
                };
                if path.starts_with("--") {
                    return Err("trace-report needs the series CSV path first".to_string());
                }
                if let Some(extra) = flags.first() {
                    return Err(format!("unexpected argument '{extra}'"));
                }
                Ok(Command::TraceReport(TraceReportOpts { path: path.clone() }))
            }
            "mount-bench" => {
                let kv = parse_kv(rest)?;
                let mut o = MountBenchOpts::default();
                o.vols = get(&kv, "vols", o.vols)?;
                o.vol_blocks = get(&kv, "vol-blocks", o.vol_blocks)?;
                o.device_blocks = get(&kv, "device-blocks", o.device_blocks)?;
                Ok(Command::MountBench(o))
            }
            "help" | "--help" | "-h" => Ok(Command::Help(None)),
            other => Err(format!("unknown command '{other}'")),
        }
    })();
    match parse_result {
        Ok(c) => c,
        Err(msg) => Command::Help(Some(msg)),
    }
}

/// Usage text.
pub const USAGE: &str = "\
wafl-sim — WAFL free-block-search simulator

USAGE:
  wafl-sim simulate [--media ssd|hdd|smr|object] [--devices N] [--parity N]
                    [--device-blocks N] [--fill F] [--churn F]
                    [--workload overwrite|oltp|sequential|churn]
                    [--ops N] [--ops-per-cp N]
                    [--no-agg-cache] [--no-vol-cache]
                    [--batched-frees] [--trim] [--check] [--json]
                    [--scrub UNITS_PER_CP]
                    [--trace FILE] [--trace-capacity EVENTS]
  wafl-sim trace-report FILE.series.csv
  wafl-sim mount-bench [--vols N] [--vol-blocks N] [--device-blocks N]
  wafl-sim help

--trace journals every CP of the run in the flight recorder, the fill
and churn CPs included, and writes Chrome trace-event JSON
(chrome://tracing / Perfetto) to FILE, checked before it is written
(balanced spans, CP-ordered), plus the per-CP time series to
FILE.series.csv. The journal holds --trace-capacity events (default
65536); overflow drops events and counts them in trace.dropped_events.
trace-report reads a series CSV and prints the CP's and each stage's
wall p50/p99 over the CPs that ran a stage, and the scrub timeline.
";

/// Results of a `simulate` run (also the JSON shape).
#[derive(Debug, serde::Serialize)]
pub struct SimulateReport {
    /// Operations measured.
    pub ops: u64,
    /// Consistency points run.
    pub cps: u64,
    /// Mean free fraction of picked physical AAs.
    pub agg_pick_free: f64,
    /// Mean free fraction of picked virtual AAs.
    pub vol_pick_free: f64,
    /// Aggregate free fraction at measurement time.
    pub aggregate_free: f64,
    /// Full-stripe fraction of the measured window.
    pub full_stripe_fraction: f64,
    /// Bitmap-metafile pages dirtied per op.
    pub metafile_pages_per_op: f64,
    /// Modelled WAFL CPU per op, µs.
    pub cpu_us_per_op: f64,
    /// Mean SSD write amplification (1.0 for non-SSD).
    pub write_amplification: f64,
    /// SMR drive interventions (0 for non-SMR).
    pub smr_interventions: u64,
    /// Iron findings, when `--check` was given.
    pub iron: Option<wafl_fs::iron::IronReport>,
    /// Runtime health and scrub metrics, when `--check` was given.
    pub health: Option<HealthReport>,
    /// Measured wall-clock phase ratios versus the simulated cost
    /// model's, when `--check` was given (absent if the window measured
    /// no CPs).
    pub wall_overlay: Option<wafl_fs::WallClockOverlay>,
    /// Median measured CP wall time (µs) from the `cp.wall.total_us`
    /// histogram, when `--check` was given.
    pub wall_p50_us: Option<f64>,
    /// 99th-percentile measured CP wall time (µs), when `--check`.
    pub wall_p99_us: Option<f64>,
    /// Flight-recorder artifacts written, when `--trace` was given.
    pub trace: Option<TraceArtifacts>,
}

/// Files written by `simulate --trace`, plus journal accounting.
#[derive(Debug, serde::Serialize)]
pub struct TraceArtifacts {
    /// Chrome trace-event JSON path.
    pub path: String,
    /// Per-CP time-series CSV path.
    pub series_csv: String,
    /// Events captured in the journal.
    pub events: usize,
    /// Events dropped by ring overflow.
    pub dropped: u64,
}

/// Aggregate health summary printed by `--check`: the scrubber's state
/// machine plus the metric families the observability layer exports.
#[derive(Debug, serde::Serialize)]
pub struct HealthReport {
    /// Health state: `healthy`, `degraded(n)`, or `read-only`.
    pub state: String,
    /// Cache structures fenced until their repair ticket settles.
    pub quarantined_structures: u64,
    /// Repair tickets awaiting processing.
    pub pending_repairs: usize,
    /// Scrub verification units read since mount.
    pub scrub_pages_scanned: u64,
    /// Faults the scrubber has detected.
    pub scrub_faults_detected: u64,
    /// Repairs completed and verified clean.
    pub scrub_repairs_succeeded: u64,
    /// Aggregate free fraction gauge.
    pub free_fraction: f64,
    /// Delayed-free log backlog, blocks.
    pub delayed_free_backlog: f64,
    /// Per-volume metrics, keyed by the registry's `vol=<id>.<name>`
    /// labels (updated at CP boundaries).
    pub volumes: std::collections::BTreeMap<String, f64>,
}

fn health_report(agg: &Aggregate) -> HealthReport {
    let status = agg.scrub_status();
    let reg = agg.obs();
    let mut volumes = std::collections::BTreeMap::new();
    for vol in agg.volumes() {
        let gauge = wafl_fs::obs::FsObs::vol_metric_name(vol.id, "space.free_fraction");
        if let Some(v) = reg.gauge_value(&gauge) {
            volumes.insert(gauge, v);
        }
        for counter in ["allocator.cursor_hits", "allocator.cursor_misses"] {
            let name = wafl_fs::obs::FsObs::vol_metric_name(vol.id, counter);
            if let Some(v) = reg.counter_value(&name) {
                volumes.insert(name, v as f64);
            }
        }
    }
    HealthReport {
        state: status.health.to_string(),
        quarantined_structures: status.quarantined_structures,
        pending_repairs: status.pending_repairs,
        scrub_pages_scanned: reg.counter_value("scrub.pages_scanned").unwrap_or(0),
        scrub_faults_detected: reg.counter_value("scrub.faults_detected").unwrap_or(0),
        scrub_repairs_succeeded: reg.counter_value("scrub.repairs_succeeded").unwrap_or(0),
        free_fraction: reg.gauge_value("space.free_fraction").unwrap_or(0.0),
        delayed_free_backlog: reg
            .gauge_value("delayed_free.backlog_blocks")
            .unwrap_or(0.0),
        volumes,
    }
}

/// Run the `simulate` subcommand.
pub fn run_simulate(o: &SimulateOpts) -> WaflResult<SimulateReport> {
    let profile = match o.media {
        MediaType::Hdd => MediaProfile::hdd(),
        MediaType::Ssd => MediaProfile::ssd(),
        MediaType::Smr => MediaProfile {
            zone_blocks: 4096,
            ..MediaProfile::smr()
        },
        MediaType::ObjectStore => MediaProfile::object_store(),
    };
    let (devices, parity) = if o.media == MediaType::ObjectStore {
        (1, 0) // native redundancy
    } else {
        (o.devices, o.parity)
    };
    let spec = RaidGroupSpec {
        data_devices: devices,
        parity_devices: parity,
        device_blocks: o.device_blocks,
        profile,
    };
    let agg_blocks = spec.data_blocks();
    let mut cfg = AggregateConfig {
        raid_aware_cache: !o.no_agg_cache,
        batched_frees: o.batched_frees,
        trim_on_free: o.trim,
        scrub_pages_per_cp: o.scrub,
        ..AggregateConfig::single_group(spec)
    };
    if o.trace.is_some() {
        cfg.trace_events = o.trace_capacity;
    }
    let working = ((agg_blocks as f64 * o.fill) as u64).max(1024);
    let vol_blocks = (working * 2).div_ceil(32768) * 32768;
    let mut agg = Aggregate::new(
        cfg,
        &[(
            FlexVolConfig {
                size_blocks: vol_blocks,
                aa_cache: !o.no_vol_cache,
                aa_blocks: None,
            },
            working,
        )],
        2026,
    )?;
    aging::fill_volume(&mut agg, VolumeId(0), o.ops_per_cp)?;
    if o.churn > 0.0 {
        aging::random_overwrite_churn(
            &mut agg,
            VolumeId(0),
            (working as f64 * o.churn) as u64,
            o.ops_per_cp,
            7,
        )?;
    }
    agg.reset_media_stats();

    let mut workload: Box<dyn Workload> = match o.workload.as_str() {
        "overwrite" => Box::new(RandomOverwrite::new(VolumeId(0), working, 11)),
        "oltp" => Box::new(OltpMix::new(vec![(VolumeId(0), working)], 0.5, 11)),
        "sequential" => Box::new(SequentialWrite::new(VolumeId(0), working)),
        "churn" => Box::new(FileChurn::new(
            VolumeId(0),
            64,
            (working / 64).max(4),
            ((working / 64) as usize / 2).max(2),
            11,
        )),
        _ => unreachable!("validated in parse"),
    };
    let stats = wafl_workloads::run(&mut agg, workload.as_mut(), o.ops, o.ops_per_cp)?;
    let iron_report = if o.check {
        Some(iron::check(&agg)?)
    } else {
        None
    };
    let health = o.check.then(|| health_report(&agg));
    let wall_overlay = if o.check {
        wafl_fs::WallClockOverlay::from_window(&stats.cp, stats.cps, &agg.config().cpu)
    } else {
        None
    };
    let (wall_p50_us, wall_p99_us) = if o.check {
        let wall = agg
            .obs()
            .histogram_handle("cp.wall.total_us")
            .expect("FsObs pre-registers the CP wall histogram");
        (Some(wall.quantile(0.50)), Some(wall.quantile(0.99)))
    } else {
        (None, None)
    };
    let trace = match &o.trace {
        Some(path) => Some(write_trace_artifacts(&agg, path)?),
        None => None,
    };
    Ok(SimulateReport {
        ops: o.ops,
        cps: stats.cps,
        agg_pick_free: stats.cp.agg_pick_free_mean(),
        vol_pick_free: stats.cp.vol_pick_free_mean(),
        aggregate_free: agg.free_fraction(),
        full_stripe_fraction: stats.cp.full_stripe_fraction(),
        metafile_pages_per_op: stats.cp.metafile_pages as f64 / o.ops.max(1) as f64,
        cpu_us_per_op: stats.cp.cpu_us / o.ops.max(1) as f64,
        write_amplification: agg.mean_write_amplification(),
        smr_interventions: agg.groups().iter().map(|g| g.smr_interventions()).sum(),
        iron: iron_report,
        health,
        wall_overlay,
        wall_p50_us,
        wall_p99_us,
        trace,
    })
}

fn write_file(path: &str, contents: &str) -> WaflResult<()> {
    std::fs::write(path, contents).map_err(|e| WaflError::TransientIo {
        reason: format!("write {path}: {e}"),
    })
}

/// Export the aggregate's trace journal: Chrome trace JSON to `path`,
/// validated before it is written, the per-CP series next to it.
fn write_trace_artifacts(agg: &Aggregate, path: &str) -> WaflResult<TraceArtifacts> {
    let tracer = agg
        .tracer()
        .expect("simulate enables tracing before the run when --trace is given");
    let events = tracer.events();
    let list = chrome_events(&events);
    if let Err(e) = validate_chrome_trace(&list) {
        panic!("the Chrome exporter laid out an invalid trace: {e}");
    }
    write_file(path, &render_chrome_trace(&list))?;
    let series = agg
        .cp_series()
        .expect("the per-CP series is enabled together with the tracer");
    let series_csv = format!("{path}.series.csv");
    write_file(&series_csv, &series.to_csv())?;
    Ok(TraceArtifacts {
        path: path.to_string(),
        series_csv,
        events: events.len(),
        dropped: tracer.dropped(),
    })
}

impl SimulateReport {
    /// Render as aligned text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(s, "ops measured           {:>12}", self.ops);
        let _ = writeln!(s, "consistency points     {:>12}", self.cps);
        let _ = writeln!(
            s,
            "aggregate free         {:>11.1}%",
            self.aggregate_free * 100.0
        );
        let _ = writeln!(
            s,
            "picked physical AA free{:>11.1}%",
            self.agg_pick_free * 100.0
        );
        let _ = writeln!(
            s,
            "picked virtual AA free {:>11.1}%",
            self.vol_pick_free * 100.0
        );
        let _ = writeln!(
            s,
            "full-stripe writes     {:>11.1}%",
            self.full_stripe_fraction * 100.0
        );
        let _ = writeln!(
            s,
            "metafile pages / op    {:>12.4}",
            self.metafile_pages_per_op
        );
        let _ = writeln!(s, "WAFL CPU / op          {:>10.1}µs", self.cpu_us_per_op);
        let _ = writeln!(
            s,
            "write amplification    {:>12.2}",
            self.write_amplification
        );
        let _ = writeln!(s, "SMR interventions      {:>12}", self.smr_interventions);
        if let Some(iron) = &self.iron {
            let _ = writeln!(
                s,
                "iron check             {:>12}",
                if iron.is_clean() { "clean" } else { "FINDINGS" }
            );
        }
        if let Some(h) = &self.health {
            let _ = writeln!(s, "health                 {:>12}", h.state);
            let _ = writeln!(s, "pending repairs        {:>12}", h.pending_repairs);
            let _ = writeln!(s, "scrub units scanned    {:>12}", h.scrub_pages_scanned);
            let _ = writeln!(s, "scrub faults detected  {:>12}", h.scrub_faults_detected);
            let _ = writeln!(
                s,
                "scrub repairs ok       {:>12}",
                h.scrub_repairs_succeeded
            );
            let _ = writeln!(
                s,
                "delayed-free backlog   {:>12}",
                h.delayed_free_backlog as u64
            );
        }
        if let (Some(p50), Some(p99)) = (self.wall_p50_us, self.wall_p99_us) {
            let _ = writeln!(s, "CP wall p50            {:>10.1}µs", p50);
            let _ = writeln!(s, "CP wall p99            {:>10.1}µs", p99);
        }
        if let Some(t) = &self.trace {
            let _ = writeln!(s, "trace events           {:>12}", t.events);
            let _ = writeln!(s, "trace dropped          {:>12}", t.dropped);
            let _ = writeln!(s, "trace written          {}", t.path);
            let _ = writeln!(s, "series written         {}", t.series_csv);
        }
        if let Some(w) = &self.wall_overlay {
            let _ = writeln!(s, "wall µs / CP           {:>12.1}", w.wall_us_per_cp);
            let _ = writeln!(s, "model µs / CP          {:>12.1}", w.model_us_per_cp);
            let _ = writeln!(s, "wall / model ratio     {:>12.3}", w.total_ratio);
            let _ = writeln!(
                s,
                "max phase drift        {:>11.1}%",
                w.max_abs_drift * 100.0
            );
            for p in &w.phases {
                // Zero-model phases (`costing`; empty-CP windows) have no
                // meaningful quotient — print the absolute-µs drift.
                let ratio = match p.ratio {
                    Some(r) => format!("ratio {r:>8.3}"),
                    None => format!("drift {:>+7.1}µs", p.drift_us),
                };
                let _ = writeln!(
                    s,
                    "  {:<20} wall {:>5.1}%  model {:>5.1}%  drift {:>+5.1}%  {ratio}",
                    p.phase,
                    p.wall_fraction * 100.0,
                    p.model_fraction * 100.0,
                    p.drift * 100.0
                );
            }
        }
        s
    }
}

/// Wall-time order statistics of the whole CP or of one CP stage.
#[derive(Debug, serde::Serialize)]
pub struct PhaseQuantiles {
    /// `cp` for the whole CP, else the stage's span name, e.g. `cp.bind`.
    pub phase: String,
    /// CPs that ran a stage and have a value for this phase.
    pub count: u64,
    /// Median wall time, µs (nearest rank over the per-CP values).
    pub p50_us: f64,
    /// 99th-percentile wall time, µs (nearest rank).
    pub p99_us: f64,
}

/// Everything `trace-report` derives from a per-CP series CSV.
#[derive(Debug, serde::Serialize)]
pub struct TraceReport {
    /// CPs in the series, one row each.
    pub cps: usize,
    /// CPs that ran no stage (`cp.wall.total_us.sum` is 0): the quantiles
    /// leave them out.
    pub empty_cps: usize,
    /// Wall quantiles: `cp`, then the stages in execution order.
    pub phases: Vec<PhaseQuantiles>,
    /// Quarantine / release / health-transition rows, in CP order.
    pub timeline: Vec<String>,
}

/// Run the `trace-report` subcommand over a per-CP series CSV.
pub fn run_trace_report(o: &TraceReportOpts) -> Result<TraceReport, String> {
    let text = std::fs::read_to_string(&o.path).map_err(|e| format!("read {}: {e}", o.path))?;
    trace_report(&text).map_err(|e| format!("{}: {e}", o.path))
}

/// Build the report from the text of a series CSV as
/// [`wafl_obs::trace::PerCpSeries::to_csv`] writes it: a header, then one
/// row per CP, `null` for a value that was not finite.
fn trace_report(csv: &str) -> Result<TraceReport, String> {
    let mut lines = csv.lines();
    let columns: Vec<&str> = lines.next().ok_or("empty file")?.split(',').collect();
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let row = line
            .split(',')
            .map(|cell| match cell {
                "null" => Ok(None),
                _ => cell
                    .parse()
                    .map(Some)
                    .map_err(|_| format!("line {line_no}: '{cell}' is not a number")),
            })
            .collect::<Result<Vec<Option<f64>>, String>>()?;
        if row.len() != columns.len() {
            let (cells, cols) = (row.len(), columns.len());
            return Err(format!(
                "line {line_no}: {cells} cells under {cols} columns"
            ));
        }
        rows.push(row);
    }
    let col = |name: &str| {
        columns
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("no '{name}' column"))
    };
    let cp = col("cp")?;
    let total = col("cp.wall.total_us.sum")?;
    let (faults, released) = (col("scrub.faults_detected")?, col("scrub.released")?);
    let health = col("health.state")?;

    // An empty CP runs no stage, so it clocks no time.
    let busy: Vec<&Vec<Option<f64>>> = rows.iter().filter(|r| r[total] != Some(0.0)).collect();
    let phases = columns
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let stage = c.strip_prefix("cp.wall.")?.strip_suffix("_us.sum")?;
            let mut values: Vec<f64> = busy.iter().filter_map(|r| r[i]).collect();
            values.sort_by(f64::total_cmp);
            Some(PhaseQuantiles {
                phase: match stage {
                    "total" => "cp".to_string(),
                    _ => format!("cp.{stage}"),
                },
                count: values.len() as u64,
                p50_us: nearest_rank(&values, 0.50),
                p99_us: nearest_rank(&values, 0.99),
            })
        })
        .collect();

    // The timeline reads every row: the scrub step runs in empty CPs too.
    // Within a CP it follows the step's order: repairs release, the scan
    // detects, then the health state settles.
    let mut timeline = Vec::new();
    let mut state = 0.0; // Healthy
    for r in &rows {
        let (n, value) = (r[cp].unwrap_or(f64::NAN), |i: usize| r[i].unwrap_or(0.0));
        if value(released) > 0.0 {
            timeline.push(format!(
                "cp {n:>5}  scrub.release     units={}",
                value(released)
            ));
        }
        if value(faults) > 0.0 {
            timeline.push(format!(
                "cp {n:>5}  scrub.detect      faults={}",
                value(faults)
            ));
        }
        if let Some(to) = r[health].filter(|&to| to != state) {
            timeline.push(format!("cp {n:>5}  health.state      {state} -> {to}"));
            state = to;
        }
    }
    Ok(TraceReport {
        cps: rows.len(),
        empty_cps: rows.len() - busy.len(),
        phases,
        timeline,
    })
}

/// The nearest-rank `q` quantile of ascending `sorted` (NaN when empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

impl TraceReport {
    /// Render as aligned text.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        use std::fmt::Write;
        let _ = writeln!(s, "CPs {}  empty {}", self.cps, self.empty_cps);
        let _ = writeln!(s, "\nphase latencies (wall µs, CPs that ran a stage)");
        let _ = writeln!(
            s,
            "  {:<20} {:>8} {:>12} {:>12}",
            "phase", "count", "p50", "p99"
        );
        for p in &self.phases {
            let _ = writeln!(
                s,
                "  {:<20} {:>8} {:>12.1} {:>12.1}",
                p.phase, p.count, p.p50_us, p.p99_us
            );
        }
        if !self.timeline.is_empty() {
            let _ = writeln!(s, "\nscrub / health timeline");
            for line in &self.timeline {
                let _ = writeln!(s, "  {line}");
            }
        }
        s
    }
}

/// Run the `mount-bench` subcommand; returns (with-TopAA, cold) stats.
pub fn run_mount_bench(o: &MountBenchOpts) -> WaflResult<(mount::MountStats, mount::MountStats)> {
    let spec = RaidGroupSpec {
        data_devices: 4,
        parity_devices: 1,
        device_blocks: o.device_blocks,
        profile: MediaProfile::hdd(),
    };
    let vols: Vec<(FlexVolConfig, u64)> = (0..o.vols)
        .map(|_| {
            (
                FlexVolConfig {
                    size_blocks: o.vol_blocks,
                    aa_cache: true,
                    aa_blocks: None,
                },
                1024,
            )
        })
        .collect();
    let mut agg = Aggregate::new(AggregateConfig::single_group(spec), &vols, 1)?;
    let image = mount::save_topaa(&agg);
    mount::crash(&mut agg);
    let fast = mount::mount_with_topaa(&mut agg, &image)?;
    mount::crash(&mut agg);
    let cold = mount::mount_cold(&mut agg)?;
    Ok((fast, cold))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_defaults() {
        let Command::Simulate(o) = parse(&args("simulate")) else {
            panic!("expected simulate");
        };
        assert_eq!(o, SimulateOpts::default());
    }

    #[test]
    fn parse_full_simulate() {
        let Command::Simulate(o) = parse(&args(
            "simulate --media hdd --devices 6 --parity 2 --device-blocks 8192 \
             --fill 0.8 --churn 0 --workload oltp --ops 1000 --ops-per-cp 128 \
             --no-vol-cache --batched-frees --check --json --scrub 4",
        )) else {
            panic!("expected simulate");
        };
        assert_eq!(o.scrub, 4);
        assert_eq!(o.media, MediaType::Hdd);
        assert_eq!(o.devices, 6);
        assert_eq!(o.parity, 2);
        assert_eq!(o.device_blocks, 8192);
        assert_eq!(o.fill, 0.8);
        assert_eq!(o.workload, "oltp");
        assert!(o.no_vol_cache && !o.no_agg_cache);
        assert!(o.batched_frees && o.check && o.json && !o.trim);
    }

    #[test]
    fn parse_errors_become_help() {
        assert!(matches!(
            parse(&args("simulate --media floppy")),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&args("simulate --ops nope")),
            Command::Help(Some(_))
        ));
        assert!(matches!(parse(&args("frobnicate")), Command::Help(Some(_))));
        assert!(matches!(
            parse(&args("simulate --ops")),
            Command::Help(Some(_))
        ));
        assert!(matches!(parse(&[]), Command::Help(None)));
        assert!(matches!(parse(&args("help")), Command::Help(None)));
    }

    #[test]
    fn simulate_runs_small() {
        let o = SimulateOpts {
            device_blocks: 512 * 40,
            ops: 5_000,
            churn: 0.5,
            check: true,
            scrub: 2,
            ..SimulateOpts::default()
        };
        let r = run_simulate(&o).unwrap();
        assert_eq!(r.ops, 5_000);
        assert!(r.cps > 0);
        assert!(r.write_amplification >= 1.0);
        assert!(r.iron.as_ref().unwrap().is_clean());
        let health = r.health.as_ref().unwrap();
        assert_eq!(health.state, "healthy");
        assert!(health.scrub_pages_scanned > 0, "scrub budget ran");
        let json = serde_json::to_string_pretty(&r).unwrap();
        assert!(
            json.contains("\"vol=0.space.free_fraction\""),
            "--check JSON must carry per-volume vol=<id> labels: {json}"
        );
        assert!(json.contains("\"vol=0.allocator.cursor_misses\""));
        let overlay = r
            .wall_overlay
            .as_ref()
            .expect("--check builds the wall overlay");
        assert!(overlay.wall_us_per_cp > 0.0);
        assert!(overlay.model_us_per_cp > 0.0);
        assert_eq!(overlay.phases.len(), 7, "one row per CP stage");
        let text = r.to_text();
        assert!(text.contains("write amplification"));
        assert!(text.contains("clean"));
        assert!(text.contains("health"));
        assert!(text.contains("wall / model ratio"));
    }

    #[test]
    fn simulate_runs_each_workload_and_media() {
        for (media, workload) in [
            ("hdd", "oltp"),
            ("smr", "sequential"),
            ("object", "overwrite"),
            ("ssd", "churn"),
        ] {
            let Command::Simulate(o) = parse(&args(&format!(
                "simulate --media {media} --workload {workload} --ops 2000 \
                 --device-blocks 16384 --churn 0.2"
            ))) else {
                panic!("parse failed for {media}");
            };
            let r = run_simulate(&o).unwrap_or_else(|e| panic!("{media}/{workload} failed: {e}"));
            assert_eq!(r.ops, 2000);
        }
    }

    #[test]
    fn parse_trace_flags_and_trace_report() {
        let Command::Simulate(o) =
            parse(&args("simulate --trace /tmp/t.json --trace-capacity 1024"))
        else {
            panic!("expected simulate");
        };
        assert_eq!(o.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(o.trace_capacity, 1024);
        let Command::TraceReport(r) = parse(&args("trace-report /tmp/t.json.series.csv")) else {
            panic!("expected trace-report");
        };
        assert_eq!(r.path, "/tmp/t.json.series.csv");
        assert!(matches!(
            parse(&args("trace-report")),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&args("trace-report /tmp/t.json extra")),
            Command::Help(Some(_))
        ));
        assert!(matches!(
            parse(&args("simulate --trace-capacity 0")),
            Command::Help(Some(_))
        ));
    }

    #[test]
    fn simulate_trace_exports_and_reports() {
        let dir = std::env::temp_dir().join("wafl_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json").to_str().unwrap().to_string();
        let o = SimulateOpts {
            device_blocks: 512 * 40,
            ops: 5_000,
            churn: 0.2,
            check: true,
            trace: Some(path.clone()),
            ..SimulateOpts::default()
        };
        let r = run_simulate(&o).unwrap();
        let t = r.trace.as_ref().expect("--trace records artifacts");
        assert!(t.events > 0);
        assert_eq!(t.dropped, 0, "the default journal holds a small run");
        assert!(r.wall_p50_us.unwrap() > 0.0);
        assert!(r.wall_p99_us.unwrap() >= r.wall_p50_us.unwrap());
        let text = r.to_text();
        assert!(text.contains("CP wall p50"));
        assert!(text.contains("trace written"));

        assert!(std::fs::read_to_string(&t.path)
            .unwrap()
            .starts_with("{\"traceEvents\":["));

        let report = run_trace_report(&TraceReportOpts {
            path: t.series_csv.clone(),
        })
        .expect("the series CSV reads back");
        assert!(
            report.cps as u64 > r.cps,
            "the fill and churn CPs are journaled as well as the measured ones"
        );
        let phases: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert_eq!(
            phases,
            [
                "cp",
                "cp.plan_virtual",
                "cp.plan_physical",
                "cp.bind",
                "cp.frees",
                "cp.apply",
                "cp.costing",
                "cp.rebalance"
            ]
        );
        for p in &report.phases {
            assert_eq!(
                p.count as usize,
                report.cps - report.empty_cps,
                "{}",
                p.phase
            );
            assert!(p.p99_us >= p.p50_us, "{}", p.phase);
        }
        assert!(report.to_text().contains("phase latencies"));
    }

    /// A series CSV with the columns `trace-report` reads, one row per
    /// entry of `rows`: `cp`, the CP's and two stages' wall sums, the
    /// two scrub deltas and the health gauge.
    fn series_csv(rows: &[&str]) -> String {
        let mut csv = "cp,scrub.faults_detected,scrub.released,\
                       cp.wall.total_us.sum,cp.wall.bind_us.sum,cp.wall.frees_us.sum,health.state\n"
            .to_string();
        for row in rows {
            csv.push_str(row);
            csv.push('\n');
        }
        csv
    }

    #[test]
    fn trace_report_takes_nearest_rank_quantiles_over_busy_cps() {
        // Bind runs 10 CPs at 1..=10 µs, given out of order; CP 5 is empty.
        let binds = [7, 3, 10, 1, 5, 0, 9, 2, 8, 4, 6];
        let rows: Vec<String> = binds
            .iter()
            .enumerate()
            .map(|(cp, &bind)| {
                let total = if bind == 0 { 0 } else { 100 + bind };
                format!("{cp},0,0,{total},{bind},1,0")
            })
            .collect();
        let rows: Vec<&str> = rows.iter().map(String::as_str).collect();
        let report = trace_report(&series_csv(&rows)).unwrap();
        assert_eq!((report.cps, report.empty_cps), (11, 1));
        let phase = |name: &str| report.phases.iter().find(|p| p.phase == name).unwrap();
        let bind = phase("cp.bind");
        assert_eq!((bind.count, bind.p50_us, bind.p99_us), (10, 5.0, 10.0));
        let cp = phase("cp");
        assert_eq!((cp.count, cp.p50_us, cp.p99_us), (10, 105.0, 110.0));
        assert!(report.timeline.is_empty());
    }

    #[test]
    fn trace_report_skips_null_cells() {
        let report = trace_report(&series_csv(&[
            "0,0,0,10,4,null,0",
            "1,0,0,null,6,2,0",
            "2,0,0,12,null,3,0",
        ]))
        .unwrap();
        let count = |name: &str| {
            report
                .phases
                .iter()
                .find(|p| p.phase == name)
                .unwrap()
                .count
        };
        assert_eq!(
            (count("cp"), count("cp.bind"), count("cp.frees")),
            (2, 2, 2)
        );
        assert_eq!(report.empty_cps, 0, "a null total is not an empty CP");
    }

    #[test]
    fn trace_report_timeline_has_one_row_per_quarantine_release_and_health_change() {
        let report = trace_report(&series_csv(&[
            "0,0,0,10,4,1,0",
            "1,2,0,10,4,1,1",
            "2,0,0,0,0,0,1",
            "3,0,2,0,0,0,0",
        ]))
        .unwrap();
        assert_eq!(
            report.timeline,
            [
                "cp     1  scrub.detect      faults=2",
                "cp     1  health.state      0 -> 1",
                "cp     3  scrub.release     units=2",
                "cp     3  health.state      1 -> 0",
            ]
        );
        assert!(report.to_text().contains("scrub / health timeline"));
    }

    #[test]
    fn trace_report_errs_on_bad_input() {
        let missing = run_trace_report(&TraceReportOpts {
            path: "/nonexistent/trace.json.series.csv".to_string(),
        });
        assert!(missing.unwrap_err().starts_with("read "));
        let ragged = trace_report(&series_csv(&["0,0,0,10,4,1,0", "1,0,0,10,4"]));
        assert!(ragged.unwrap_err().contains("line 3"));
        let word = trace_report(&series_csv(&["0,0,0,10,four,1,0"]));
        assert!(word.unwrap_err().contains("'four' is not a number"));
        let no_cp = series_csv(&["0,0,0,10,4,1,0"]).replacen("cp,", "seq,", 1);
        assert!(trace_report(&no_cp).unwrap_err().contains("no 'cp' column"));
    }

    #[test]
    fn mount_bench_runs() {
        let (fast, cold) = run_mount_bench(&MountBenchOpts {
            vols: 3,
            vol_blocks: 2 * 32768,
            device_blocks: 8 * 4096,
        })
        .unwrap();
        assert_eq!(fast.metafile_blocks_read, 1 + 3 * 2);
        assert!(cold.metafile_blocks_read > fast.metafile_blocks_read);
    }
}
