//! The repo benchmark. One invocation measures one workload:
//!
//! ```text
//! wafl-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! and prints two JSON lines: the run's metadata, then — last — the
//! result `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (and the spans go to `benchmark/out/`). It exits
//! non-zero if a correctness check fails. `--workload all` (the
//! default) runs every workload, untraced then traced, each in a child
//! process so that `peak_rss_mb` is per workload.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how they
//! are meant to move together.

mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod verify;
mod workloads;

use run::Bench;
use stats::{json_number, json_object, json_string, median, metrics_json};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Kind;

/// Set-ups per untraced run, `setup_s` being their median: at least
/// `MIN_SETUPS`, then more while they have taken less than
/// `SETUP_BUDGET_S` together (a set-up of a tenth of a second is at the
/// mercy of one page-fault storm), up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 2.0;
/// Worker threads the library's parallel stages may use, unless the
/// environment already says otherwise. The benchmark's host is a couple
/// of virtual cores on a shared machine: waking the second one for each
/// of a CP's fan-outs costs more than it saves there (every workload is
/// faster on one thread) and that cost swings with the neighbours' load
/// — by 2x on `fresh_sequential` — so with more threads the numbers are
/// the host scheduler's, not the program's.
const WORKER_THREADS: &str = "1";
const WORKER_THREADS_VAR: &str = "RAYON_NUM_THREADS";
/// `--quick` divides the window by this.
const QUICK_DIVISOR: f64 = 50.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {} outside (0, 600]", args.seconds));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v.into())),
                }
            }
            "--quick" => args.quick = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Before the first parallel stage reads it (once per process) and
    // before any thread exists; children of `--workload all` inherit it.
    if std::env::var_os(WORKER_THREADS_VAR).is_none() {
        std::env::set_var(WORKER_THREADS_VAR, WORKER_THREADS);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wafl-benchmark: {e}");
            eprintln!(
                "usage: wafl-benchmark [--workload all|{}] [--seed N] [--seconds S] \
                 [--trace 0|1] [--quick]",
                workloads::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::from_name(&args.workload) else {
        eprintln!("wafl-benchmark: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    match run_one(kind, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wafl-benchmark: {}: {e}", kind.name());
            ExitCode::from(2)
        }
    }
}

/// Every workload, untraced then traced, one child process each.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wafl-benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for kind in workloads::ALL {
        for trace in ["0", "1"] {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", kind.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.quick {
                child.arg("--quick");
            }
            // `status` waits for the child; its stdout is ours.
            ok &= child.status().is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First line of a command's stdout, or "unknown".
fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Measure one workload; `Ok(false)` when it ran but was not correct.
fn run_one(kind: Kind, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let seconds = args.seconds / if args.quick { QUICK_DIVISOR } else { 1.0 };

    // Set-up, repeated on the untraced run: each builds and ages the
    // file system from scratch from the same derived seeds.
    let (min_setups, max_setups) = if args.trace || args.quick {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    let mut setup_s = Vec::with_capacity(max_setups);
    let mut ready = None;
    while setup_s.len() < min_setups
        || (setup_s.len() < max_setups && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(workloads::set_up(kind, args.seed).map_err(|e| format!("set-up: {e}"))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = Bench::new(kind, ready.expect("at least one set-up"));

    for _ in 0..kind.warmup_cps() / 2 {
        match kind {
            Kind::MountCycle => bench.mount_cycle(true),
            _ => {
                bench.round();
                bench.round();
            }
        }
    }
    bench.reset();
    // Set-up and warm-up are fixed op counts, so at this point the hash
    // depends on the seed alone; the window's length is the host's.
    let ops_hash = bench.stream.hash.0;
    bench.run_window(seconds, args.trace);

    let wrong = verify::check(&bench.agg, &bench.stream.shadow);
    for line in &wrong {
        eprintln!("wafl-benchmark: {}: INCORRECT: {line}", kind.name());
    }
    let failed = bench.win.failed + wrong.len() as u64;
    let correct = failed == 0;

    let metrics = if args.trace {
        let probes = probes::run(&bench.agg, kind.ops_per_cp(), args.seed, &mut bench.tracer);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}.trace.json", kind.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| {
                let mut out = std::io::BufWriter::new(f);
                bench.tracer.write_json(&mut out)?;
                std::io::Write::flush(&mut out)
            })
            .map_err(|e| format!("{}: {e}", path.display()))?;
        metrics::per_layer(&bench, probes)
    } else {
        metrics::end_to_end(&bench, median(setup_s.clone()))
    };

    let w = &bench.win;
    let m = &bench.mounts;
    let count = |n: usize| n.to_string();
    let secs = |ns: u64| json_number(ns as f64 / 1e9);
    let meta = [
        ("workload", json_string(kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_number(seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("quick", args.quick.to_string()),
        (
            "nproc",
            count(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("write_shards", count(bench.agg.config().write_shards)),
        (
            "worker_threads",
            json_string(&std::env::var(WORKER_THREADS_VAR).unwrap_or_default()),
        ),
        ("rustc", json_string(&tool_output("rustc", &["--version"]))),
        (
            "git_commit",
            json_string(&tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("ops_hash", json_string(&format!("{ops_hash:016x}"))),
        (
            "ops",
            json_object(&[
                ("window", w.ops.to_string()),
                ("window_reads", w.reads.to_string()),
                ("generated", bench.stream.generated.to_string()),
                ("ops_per_cp", count(kind.ops_per_cp())),
            ]),
        ),
        (
            "samples",
            json_object(&[
                ("setup_s", count(setup_s.len())),
                ("cp_wall_ms", count(w.cp_wall_ms.len())),
                ("mount_ready_ms", count(m.ready_ms.len())),
                ("mount_cold_ms", count(m.cold_ms.len())),
                ("spans", count(bench.tracer.len())),
            ]),
        ),
        (
            "busy_s",
            json_object(&[
                ("total", json_number(w.busy_s())),
                ("intake", secs(w.intake_ns)),
                ("run_cp", secs(w.cp_ns)),
                ("mount", secs(w.mount_ns)),
            ]),
        ),
        ("generate_s", secs(w.gen_ns)),
        ("wall_s", json_number(started.elapsed().as_secs_f64())),
    ];
    println!("{}", json_object(&[("meta", json_object(&meta))]));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        w.attempted.max(1),
        metrics_json(&metrics)
    );
    Ok(correct)
}
