#!/usr/bin/env bash
# Non-test lines per crate: for every .rs file under a crate's src/, the
# lines above the file's first top-level `#[cfg(test)]` (the whole file
# when it has none). Prints one "<lines> <src dir>" row per crate, the
# root package's `src` included, then the total.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in crates/*/src src; do
  lines="$(find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^#\[cfg\(test\)\]/ { counting = 0 }
    counting { n++ }
    END { print n + 0 }
  ')"
  printf '%6d %s\n' "$lines" "$dir"
  total=$((total + lines))
done
printf '%6d total\n' "$total"
