#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, the release-only scrub smoke
# test — and optionally one of the release-mode torture loops or a
# benchmark smoke run.
#
#   scripts/ci.sh                 # fast gates (no-threads guard, fmt,
#                                 # clippy, tests, scrub smoke, oracle
#                                 # parity, benchmark check, frozen-paths
#                                 # guard)
#   scripts/ci.sh --torture       # fast gates + 200-seed crash torture
#                                 # + 64-seed stress sweep checked
#                                 # against a model of the live blocks
#   scripts/ci.sh --scrub-torture # fast gates + 200-seed runtime-scrub
#                                 # torture (release: debug builds assert
#                                 # on latent counter scribbles)
#   scripts/ci.sh --bench-smoke   # fast gates + one untimed iteration of
#                                 # every criterion bench (compile + run)
#   scripts/ci.sh --oracle-parity # the per-block oracle parity sweep alone
#   scripts/ci.sh --bench-check   # the benchmark package's smoke run and
#                                 # unit tests alone
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "==> $*"
  "$@"
}

# Oracle-parity gate: the release-mode seed sweep checking every CP block
# by block against the test-only wafl-oracle references — both bitmaps
# bit-exact against per-bit shadows, every mapping and pvbn owner equal
# to a per-block map model, per-group costing f64-bit-identical to
# per-block costing, and every heap and volume HBPS clean under its own
# audit (RaidAwareCache::audit, Hbps::audit) against the test-only
# popcount_score. Zero diffs allowed.
oracle_parity() {
  run cargo test --release -p wafl-fs --test oracle_parity -- --ignored
}

# Benchmark-package gate: benchmark/ is a workspace of its own, so the
# workspace build, clippy and test lines above never compile it. Run its
# smoke pass (every workload, every metric named in BENCHMARK.json, every
# correctness check) and its unit tests, so a crate API change cannot
# silently break it.
#
# Every cargo build of the package rewrites benchmark/Cargo.lock in the
# working tree (it drops the committed file's stale `rayon` stanza), and
# the file is frozen: a lock that matched HEAD before the gate is put
# back after it, so the gate's own builds do not trip frozen_paths.
bench_check() {
  local lock_was_clean=0
  git diff --quiet HEAD -- benchmark/Cargo.lock && lock_was_clean=1
  run benchmark/check.sh
  run cargo test --release --offline --manifest-path benchmark/Cargo.toml
  if ((lock_was_clean)); then
    git checkout -- benchmark/Cargo.lock
  fi
}

# Frozen paths: the driver compares a PR against its parent with the
# benchmark as committed, so BENCHMARK.json and benchmark/ must not
# differ from HEAD when a change is committed. The usual offender is the
# lock file a hand-run `cargo build` of the benchmark rewrote.
frozen_paths() {
  echo "==> frozen-paths guard"
  if ! git diff --quiet HEAD -- BENCHMARK.json benchmark/; then
    git diff --stat HEAD -- BENCHMARK.json benchmark/
    echo "BENCHMARK.json or benchmark/ differs from HEAD; if it is only the" >&2
    echo "lock file cargo rewrote:  git checkout -- benchmark/Cargo.lock" >&2
    return 1
  fi
}

# No threads in the library (ROADMAP aim 1, "the same statistics under
# any thread schedule", as a check): the crates a CP runs in neither
# depend on a thread pool nor start a thread outside their `mod tests`.
# wafl-obs (instruments shared across threads by design) and the harness
# (fig6 runs its four arms on scoped threads) are not under the guard.
no_threads() {
  echo "==> no-threads guard"
  if grep -n 'rayon' Cargo.lock; then
    echo "Cargo.lock names rayon" >&2
    return 1
  fi
  local hits
  hits="$(find crates/{types,bitmap,core,raid,media,faults,fs,oracle,workloads}/src \
    -name '*.rs' -exec awk '
      FNR == 1 { tests = 0 }
      /^mod tests/ { tests = 1 }
      !tests && /rayon|thread::spawn|thread::scope/ { print FILENAME ":" FNR ": " $0 }
    ' {} +)"
  if [[ -n "$hits" ]]; then
    echo "$hits"
    echo "a library crate mentions rayon or starts a thread" >&2
    return 1
  fi
}

if [[ "${1:-}" == "--oracle-parity" ]]; then
  oracle_parity
  echo "CI gates passed."
  exit 0
fi

if [[ "${1:-}" == "--bench-check" ]]; then
  bench_check
  echo "CI gates passed."
  exit 0
fi

no_threads
run cargo fmt --all --check
# or_fun_call is allow-by-default: an eager `ok_or(.. format!(..))` on
# the op path costs a malloc + format + free per *successful* call.
run cargo clippy --workspace --all-targets -- -D warnings -D clippy::or_fun_call
# Tier-1, the mount-resume gate included: crash_consistency.rs's
# mount_cycles_fill_the_same_aas_as_an_uninterrupted_run (a mount after
# every CP picks no more AAs and writes no fewer full stripes than no
# crash at all) and the ranked-xor-active invariant after every rebuild;
# and the CP-stats gate: crates/fs/tests/cp_digest.rs compares golden
# digests of every CpStats field but `wall` — the planner's counters,
# which have no per-block definition for wafl-oracle to check — on the
# two oracle-parity geometries and on force-drained batched frees, rg
# back-off, an object-store group, a cache-less volume and crash +
# mount_auto cycles. Tier-1 also runs the smoke gates:
# crates/harness/tests/obs_smoke.rs (metric families, the one-bin-width
# pick bound), crates/harness/tests/alloc_smoke.rs (exact allocator
# counters per arm) and wafl-cli's simulate_trace_exports_and_reports
# (simulate --trace, then trace-report on the series CSV). The step's
# wall time is printed: tier-1 is meant to stay under a minute warm. So
# are the non-test lines per crate (scripts/loc.sh), the measure of a
# change that means to shrink the code.
test_start=$SECONDS
run cargo test -q
echo "==> cargo test -q took $((SECONDS - test_start)) s"
run scripts/loc.sh
# Online-scrub invariants, release-only (debug bitmap asserts fire on the
# scribbles): two injected counter scribbles are each detected and
# repaired by the scan step that reads them, and health stays Healthy.
run cargo test --release -p wafl-fs --test scrub_torture -- --ignored --exact scrub_smoke
oracle_parity
bench_check
frozen_paths

if [[ "${1:-}" == "--torture" ]]; then
  run cargo test --release -p wafl-fs --test crash_consistency -- --ignored
  run cargo test --release --test stress -- --ignored
fi

if [[ "${1:-}" == "--scrub-torture" ]]; then
  run cargo test --release -p wafl-fs --test scrub_torture -- --ignored
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
  run cargo bench -p wafl-bench -- --test
fi

echo "CI gates passed."
