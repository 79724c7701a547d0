#!/usr/bin/env bash
# Local CI gate: build, test, format, lint. Run from the repo root.
# Mirrored by .github/workflows/ci.yml — keep the steps in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

banner() { printf '\n==== %s ====\n' "$1"; }

banner "Build (release)"
cargo build --release

banner "Test"
cargo test -q

banner "Format check"
cargo fmt --check

banner "Clippy"
cargo clippy --workspace --all-targets -- -D warnings

banner "Docs (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

banner "No parking_lot or crossbeam in the sources (their manifest lines stay until the benchmark's lock file is re-frozen)"
if grep -rlE 'parking_lot|crossbeam' crates/*/src src tests examples; then
  echo "the files above name parking_lot or crossbeam: use std::sync" >&2
  exit 1
fi

banner "Line counts (fails when core + db, ml, storage or crates/bench passes its ceiling)"
bash scripts/loc.sh

banner "Golden bits (model bits pinned across commits, release arithmetic)"
cargo test --release --test golden_bits

banner "Allocation budget (scans allocate per block and per epoch, INSERTs per page and per statement, never per fill, row or hand-off)"
cargo test --release --test alloc_budget

banner "Every crate's lib tests (the fill and its hand-off test the_hand_off_point_is_invisible_once_the_fill_is_settled, the orders, the executor, planner and session, the driver)"
cargo test --release --workspace --lib

banner "Concurrency stress (N sessions over one engine, bit-identical)"
cargo test --release --test concurrent_sessions

banner "Crash matrix (kill at every WAL write site, recover, bit-identical)"
cargo test --release --test crash_recovery

banner "Serving hot-reload (predictors racing durable trains, bit-identical)"
cargo test --release --test serving_hot_reload

banner "Ingest + continuous training (concurrent INSERT/TRAIN, table-WAL crash matrix)"
cargo test --release --test ingest_train

banner "Examples (the only non-test callers of the file scan, multi-worker training and the order diagnostics)"
for example in persistence distributed_dl shuffle_diagnostics; do
  cargo run --release --example "$example" > /dev/null
done

banner "Paper figures (byte gate: corgi-bench all regenerates every results/*.tsv)"
# Every figure and table is seeded and priced on the simulated clock, so a
# TSV is a function of the code alone: a digit moves only on purpose, and
# then its TSV is re-recorded in the same change. fig11 and fig13 train
# through SQL, fig3 runs MRS and Sliding-Window, fig7 multi-worker training.
figures_dir=$(mktemp -d)
CORGI_RESULTS_DIR="$figures_dir" \
  cargo run --release -p corgipile-bench --bin corgi-bench -- all > /dev/null
# Every TSV is diffed before the gate fails, so a change that moves digits
# lists all of them.
moved=0
diff <(cd results && ls -- *.tsv) <(cd "$figures_dir" && ls -- *.tsv) || moved=1
for tsv in results/*.tsv; do
  diff -u "$tsv" "$figures_dir/$(basename "$tsv")" || moved=1
done
rm -rf "$figures_dir"
if [ "$moved" != 0 ]; then
  echo "results/*.tsv moved: the diffs above list every digit" >&2
  exit 1
fi

banner "Repo benchmark (quick): harness unit tests + every workload's output checks"
# Not a performance gate: --quick shortens the runs; a workload whose
# output checks fail (correct = false, failed > 0) exits non-zero.
(cd benchmark && cargo test --offline)
bash benchmark/run.sh --quick

banner "Kernel lane layout (no EpochDriver::run closure of the benchmark binary calls Page::row out of line)"
bash scripts/kernel_lane_inlined.sh

banner "Repo benchmark (traced): every per-layer probe still runs"
# The probes issue SQL of their own (ROADMAP 1(b)): a PR that deletes an
# option or entry point they use breaks only a --trace 1 run. ingest_mixed
# runs every probe; a probe that fails exits non-zero.
bash benchmark/run.sh --quick --trace 1 --workload ingest_mixed

banner "CI gate passed"
