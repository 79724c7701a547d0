#!/usr/bin/env bash
# Non-test lines of Rust per engine crate: for every crates/<c>/src/*.rs
# except proptests.rs, the lines before the first `#[cfg(test)]`.
# Simplicity PRs quote this number before and after. Exits 1 when
# core + db, core + db + shuffle, ml, storage, or the whole of crates/bench
# (every .rs file, tests and criterion benches included), grows past its
# ceiling. Each ceiling is the count the last deleting PR reached: it may
# only go down. `shuffle` is printed after `total`, not folded into it, so
# the series of totals quoted by earlier PRs stays comparable; code that
# moves between `shuffle` and `core` or `db` is gated by the sum of the
# three.
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_DB_CEILING=6998
CORE_DB_SHUFFLE_CEILING=9056
ML_CEILING=1419
STORAGE_CEILING=5025
BENCH_CEILING=2756

non_test_lines() {
  local n=0 f
  for f in crates/"$1"/src/*.rs; do
    [ "$(basename "$f")" = proptests.rs ] && continue
    n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")))
  done
  echo "$n"
}

total=0
core_db=0
for crate in core db ml storage; do
  n=$(non_test_lines "$crate")
  printf '%-8s %6d\n' "$crate" "$n"
  total=$((total + n))
  case "$crate" in
    core|db) core_db=$((core_db + n)) ;;
    ml) ml=$n ;;
    storage) storage=$n ;;
  esac
done
printf '%-8s %6d\n' total "$total"
shuffle=$(non_test_lines shuffle)
printf '%-8s %6d\n' shuffle "$shuffle"
printf '%-8s %6d  (ceiling %d)\n' core+db "$core_db" "$CORE_DB_CEILING"
printf '%s %d  (ceiling %d)\n' core+db+shuffle "$((core_db + shuffle))" "$CORE_DB_SHUFFLE_CEILING"
printf '%-8s %6d  (ceiling %d)\n' ml "$ml" "$ML_CEILING"
printf '%-8s %6d  (ceiling %d)\n' storage "$storage" "$STORAGE_CEILING"
bench=$(find crates/bench -name '*.rs' -exec cat {} + | wc -l)
printf '%-8s %6d  (ceiling %d)\n' bench "$bench" "$BENCH_CEILING"
if [ "$core_db" -gt "$CORE_DB_CEILING" ]; then
  echo "core + db is over its ceiling: delete before adding" >&2
  exit 1
fi
if [ "$((core_db + shuffle))" -gt "$CORE_DB_SHUFFLE_CEILING" ]; then
  echo "core + db + shuffle is over its ceiling: delete before adding" >&2
  exit 1
fi
if [ "$ml" -gt "$ML_CEILING" ]; then
  echo "ml is over its ceiling: delete before adding" >&2
  exit 1
fi
if [ "$storage" -gt "$STORAGE_CEILING" ]; then
  echo "storage is over its ceiling: delete before adding" >&2
  exit 1
fi
if [ "$bench" -gt "$BENCH_CEILING" ]; then
  echo "crates/bench is over its ceiling: wall-clock questions belong in benchmark/" >&2
  exit 1
fi
