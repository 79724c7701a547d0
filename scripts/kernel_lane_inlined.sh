#!/usr/bin/env bash
# Fails when a closure of `EpochDriver::run` in the release benchmark binary
# calls `Page::row` (or `Page::rows`' closure) out of line. Those closures
# are the epoch's two lanes, the kernel lane among them, and they run once
# per row visit: an out-of-line row view there costs `train_narrow` ≈ 5 % of
# its CPU a row, and whether LLVM inlines it can flip with any change to
# `corgipile-storage`. This check turns that flip into a symbol diff instead
# of noise under a ±25 % timing bound.
#
#   scripts/kernel_lane_inlined.sh [path/to/corgipile-benchmark]
#
# The default path is the binary `benchmark/run.sh` builds. Needs `nm` and
# `objdump` (binutils).
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-${CARGO_TARGET_DIR:-benchmark/target}/release/corgipile-benchmark}"
[ -x "$bin" ] || { echo "no benchmark binary at $bin: run benchmark/run.sh first" >&2; exit 1; }

closures=0
bad=0
while read -r addr size _ name; do
  closures=$((closures + 1))
  start=$((16#$addr))
  calls=$(objdump -d -C --no-show-raw-insn --start-address="$start" \
    --stop-address=$((start + 16#$size)) "$bin" |
    grep -E 'call.*<corgipile_storage::page::Page::rows?(::\{\{closure\}\})*>' || true)
  if [ -n "$calls" ]; then
    echo "$name at 0x$addr calls the row view out of line:" >&2
    echo "$calls" >&2
    bad=1
  fi
done < <(nm -S --defined-only -C "$bin" | grep -E ' corgipile_core::driver::EpochDriver::run(::\{\{closure\}\})+$')

if [ "$closures" -eq 0 ]; then
  echo "no EpochDriver::run closure in $bin: the check has nothing to look at; update it" >&2
  exit 1
fi
[ "$bad" -eq 0 ] || exit 1
echo "$closures EpochDriver::run closures, none calls Page::row out of line"
