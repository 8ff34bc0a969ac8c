#!/usr/bin/env bash
# benchmark/check.sh
#
# Smoke test: runs every workload twice in --quick mode (1/50 of the
# window), untraced and traced, and verifies that every workload and
# metric named in BENCHMARK.json is printed with its unit, that names
# and counts stay inside the contract's limits, and that every
# correctness check passes.
set -euo pipefail
exec python3 "$(dirname "$0")/tools.py" check
