#!/usr/bin/env bash
# Report the engine crate's size: non-test source lines (every line of
# crates/engine/src/*.rs before the file's first `#[cfg(test)]`) and the
# number of `pub fn` items in those lines. Report-only; CI appends the
# output to the lint job's step summary.
#
# Usage: scripts/engine_size.sh
set -euo pipefail
cd "$(dirname "$0")/.."

awk '
  FNR == 1 { in_test = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
  !in_test {
    lines++
    if ($0 ~ /^[[:space:]]*pub fn[[:space:]]/) pub_fns++
  }
  END {
    printf "engine non-test lines: %d\n", lines
    printf "engine pub fns: %d\n", pub_fns
  }
' crates/engine/src/*.rs
