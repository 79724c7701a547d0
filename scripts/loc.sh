#!/usr/bin/env bash
# Non-test lines of Rust per engine crate: for every crates/<c>/src/*.rs
# except proptests.rs, the lines before the first `#[cfg(test)]`.
# Simplicity PRs quote this number before and after. Exits 1 when
# core + db, or the whole of crates/bench (every .rs file, tests and
# criterion benches included), grows past its ceiling. Each ceiling is
# the count the last deleting PR reached: it may only go down.
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_DB_CEILING=8095
BENCH_CEILING=2798

total=0
core_db=0
for crate in core db ml storage; do
  n=0
  for f in crates/"$crate"/src/*.rs; do
    [ "$(basename "$f")" = proptests.rs ] && continue
    n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")))
  done
  printf '%-8s %6d\n' "$crate" "$n"
  total=$((total + n))
  case "$crate" in core|db) core_db=$((core_db + n)) ;; esac
done
printf '%-8s %6d\n' total "$total"
printf '%-8s %6d  (ceiling %d)\n' core+db "$core_db" "$CORE_DB_CEILING"
bench=$(find crates/bench -name '*.rs' -exec cat {} + | wc -l)
printf '%-8s %6d  (ceiling %d)\n' bench "$bench" "$BENCH_CEILING"
if [ "$core_db" -gt "$CORE_DB_CEILING" ]; then
  echo "core + db is over its ceiling: delete before adding" >&2
  exit 1
fi
if [ "$bench" -gt "$BENCH_CEILING" ]; then
  echo "crates/bench is over its ceiling: wall-clock questions belong in benchmark/" >&2
  exit 1
fi
