#!/usr/bin/env python3
"""Behind repeat.sh and check.sh: run the benchmark the way the driver does
(the `command` of BENCHMARK.json plus --workload/--seed/--seconds/--trace)
and look at what it prints."""

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(workload, seed, trace, extra=()):
    """One run; returns (meta, result) parsed from its last two lines."""
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the driver computes them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def repeat(argv):
    """repeat N [BASE_SEED] [--traced]: N sets of runs, one seed per set."""
    traced = "--traced" in argv
    argv = [a for a in argv if a != "--traced"]
    n = int(argv[0]) if argv else 10
    base = int(argv[1]) if len(argv) > 1 else 1
    if n < 2:
        sys.exit("repeat: need at least 2 sets for quartiles")
    kinds = [("end_to_end", 0)] + ([("per_layer", 1)] if traced else [])
    over = 0
    raw = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        for kind, trace in kinds:
            values = {m["name"]: [] for m in SPEC[kind]}
            for i in range(n):
                _, result = run(w, base + i, trace)
                for name, m in result["metrics"].items():
                    values[name].append(m["value"])
            raw[f"{w}/{kind}"] = values
            print(f"\n{w} ({kind}, {n} runs, seeds {base}..{base + n - 1})")
            print(f"  {'metric':38} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
            for m in SPEC[kind]:
                med, q1, q3, s = spread(values[m["name"]])
                bound = m.get("bound")
                flag = ""
                if bound is not None and m["name"] != "setup_s":
                    flag = f"{bound:.3f}"
                    if s > bound:
                        flag += "  OVER BOUND"
                        over += 1
                    elif s > bound / 3:
                        flag += "  above bound/3"
                print(f"  {m['name']:38} {med:14.6g} {q1:14.6g} {q3:14.6g} {s:8.4f}  {flag}")
    out = ROOT / "benchmark" / "out"
    out.mkdir(exist_ok=True)
    (out / f"repeat-{base}-{n}.json").write_text(json.dumps(raw))
    if over:
        sys.exit(f"\n{over} end-to-end metric x workload pairs spread wider than their bound")


def check(argv):
    """check: two --quick runs of everything against BENCHMARK.json."""
    problems = []
    groups = [("workloads", 2, 8), ("end_to_end", 1, 16), ("per_layer", 1, 128)]
    names = []
    for key, lo, hi in groups:
        if not lo <= len(SPEC[key]) <= hi:
            problems.append(f"{key}: {len(SPEC[key])} entries, allowed {lo}..{hi}")
        names += [e["name"] for e in SPEC[key]]
    problems += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    problems += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    if not any(m["name"] == "setup_s" for m in SPEC["end_to_end"]):
        problems.append("end_to_end lacks setup_s")
    for seed in (1, 2):
        for w in (w["name"] for w in SPEC["workloads"]):
            for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
                meta, result = run(w, seed, trace, ["--quick"])
                where = f"{w} seed {seed} trace {trace}"
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{where}: not correct: {result['failed']} failed")
                want = {m["name"]: m["unit"] for m in SPEC[kind]}
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                if want != got:
                    diff = set(want.items()) ^ set(got.items())
                    problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(diff)}")
                if kind == "end_to_end":
                    zero = [n for n, m in result["metrics"].items() if not m["value"] > 0]
                    if zero:
                        problems.append(f"{where}: end-to-end metrics not above 0: {zero}")
                if meta["workload"] != w or meta["seed"] != seed:
                    problems.append(f"{where}: metadata says {meta['workload']} seed {meta['seed']}")
                print(f"ok  {where}: {len(got)} metrics, {result['attempted']} attempted")
    if problems:
        sys.exit("FAIL\n  " + "\n  ".join(problems))
    print(f"PASS: {len(SPEC['workloads'])} workloads, {len(SPEC['end_to_end'])} end-to-end "
          f"and {len(SPEC['per_layer'])} per-layer metrics, all correctness checks passed")


if __name__ == "__main__":
    commands = {"repeat": repeat, "check": check}
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        sys.exit("usage: tools.py repeat N [BASE_SEED] [--traced] | tools.py check")
    commands[sys.argv[1]](sys.argv[2:])
