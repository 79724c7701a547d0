#!/usr/bin/env bash
# Non-test lines of Rust per engine crate: for every crates/<c>/src/*.rs
# except proptests.rs, the lines before the first `#[cfg(test)]`.
# Simplicity PRs quote this number before and after.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in core db ml storage; do
  n=0
  for f in crates/"$crate"/src/*.rs; do
    [ "$(basename "$f")" = proptests.rs ] && continue
    n=$((n + $(awk '/^#\[cfg\(test\)\]/ { exit } { c++ } END { print c + 0 }' "$f")))
  done
  printf '%-8s %6d\n' "$crate" "$n"
  total=$((total + n))
done
printf '%-8s %6d\n' total "$total"
