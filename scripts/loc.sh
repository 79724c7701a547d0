#!/usr/bin/env bash
# Non-test lines of Rust per engine crate: for every crates/<c>/src/*.rs
# except proptests.rs, the lines before the first `#[cfg(test)]`.
# Simplicity PRs quote this number before and after. Exits 1 when
# core + db grows past the ceiling ROADMAP item 4 set (15 % under the
# 9 575 lines the two crates had before the one-epoch-driver work).
set -euo pipefail
cd "$(dirname "$0")/.."

CORE_DB_CEILING=8139

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
if [ "$core_db" -gt "$CORE_DB_CEILING" ]; then
  echo "core + db is over its ceiling: delete before adding" >&2
  exit 1
fi
