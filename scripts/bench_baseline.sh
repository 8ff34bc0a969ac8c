#!/usr/bin/env bash
# Regenerate the recorded performance baseline (BENCH_bitmap.json,
# BENCH_cp.json, BENCH_alloc.json, and BENCH_obs.json at the repo root).
# Run on an otherwise idle machine; numbers are means over fixed
# iteration counts, see docs/perf.md.
#
#   scripts/bench_baseline.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo run --release -p wafl-harness --example bench_baseline -- --out-dir .
