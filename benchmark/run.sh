#!/usr/bin/env bash
# The benchmark's one command. Builds the harness (offline, release) and runs it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--quick]
#
# Without --workload every workload runs in turn, each in a process of its own
# (peak RSS is per process). The last line of each run is its JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/corgipile-benchmark"

workload=""
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
if [ -n "$workload" ]; then
  exec "$bin" --out "$here/out" --workload "$workload" "${args[@]}"
fi
for w in train_narrow train_wide predict_filter ingest_mixed; do
  "$bin" --out "$here/out" --workload "$w" "${args[@]}"
done
