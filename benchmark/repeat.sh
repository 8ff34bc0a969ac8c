#!/usr/bin/env bash
# benchmark/repeat.sh N [BASE_SEED] [--traced]
#
# N full sets of runs (every workload, one new seed per set), then per
# metric x workload the median, the quartiles and the relative spread
# (q3 - q1) / median, flagging every end-to-end metric whose spread
# exceeds its bound in BENCHMARK.json. This is how those bounds were
# calibrated; run it twice to compare two sets of runs of the same code.
set -euo pipefail
exec python3 "$(dirname "$0")/tools.py" repeat "$@"
