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

banner "Non-test lines per engine crate (fails when core + db passes its ceiling)"
bash scripts/loc.sh

banner "Golden bits (model bits pinned across commits, release arithmetic)"
cargo test --release --test golden_bits

banner "Concurrency stress (N sessions over one engine, bit-identical)"
cargo test --release --test concurrent_sessions

banner "Crash matrix (kill at every WAL write site, recover, bit-identical)"
cargo test --release --test crash_recovery

banner "Pipeline bench (smoke scale)"
# Completes-and-emits-valid-JSON check only — no performance gating in CI.
CORGI_PIPELINE_TUPLES=1500 CORGI_PIPELINE_EPOCHS=2 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- pipeline
python3 -c "import json; json.load(open('BENCH_pipeline.json'))" \
  || { echo "BENCH_pipeline.json is not valid JSON"; exit 1; }

banner "Concurrency bench (smoke scale)"
CORGI_CONCURRENCY_TUPLES=2000 CORGI_CONCURRENCY_EPOCHS=1 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- concurrency
python3 -c "import json; json.load(open('BENCH_concurrency.json'))" \
  || { echo "BENCH_concurrency.json is not valid JSON"; exit 1; }

banner "Recovery bench (smoke scale)"
CORGI_RECOVERY_TUPLES=2000 CORGI_RECOVERY_EPOCHS=2 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- recovery
python3 -c "import json; json.load(open('BENCH_recovery.json'))" \
  || { echo "BENCH_recovery.json is not valid JSON"; exit 1; }

banner "Serving hot-reload (predictors racing durable trains, bit-identical)"
cargo test --release --test serving_hot_reload

banner "Serving bench (smoke scale)"
CORGI_SERVING_TUPLES=2000 CORGI_SERVING_RUNS=1 CORGI_SERVING_BATCH_ROWS=128 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- serving
python3 -c "
import json
d = json.load(open('BENCH_serving.json'))
assert all(s['predictions_per_sec'] > 0 for s in d['sessions']), d['sessions']
assert d['bit_identical_all'], 'concurrent serving diverged from the serial reference'
" || { echo "BENCH_serving.json failed the serving gate"; exit 1; }

banner "Vectorize bench (smoke scale)"
# Gated: the fused pipeline must beat the interpreted tree by >= 1.3x
# simulated compute on every grid cell and stay bit-identical.
CORGI_VECTORIZE_TUPLES=2000 CORGI_VECTORIZE_EPOCHS=1 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- vectorize
python3 -c "
import json
d = json.load(open('BENCH_vectorize.json'))
assert d['speedup'] >= 1.3, f\"fused speedup {d['speedup']} < 1.3x\"
assert d['bit_identical_all'], 'fused pipeline diverged from the interpreted oracle'
" || { echo "BENCH_vectorize.json failed the vectorize gate"; exit 1; }

banner "Planner bench (smoke scale)"
# Gated: the cost-based chooser must move off plain CorgiPile on
# clustered data, keep it on pre-shuffled data, and the bounded
# RECLUSTER pass must stay within its declared io_budget. The
# convergence-frontier check is only meaningful at full bench scale.
CORGI_PLANNER_TUPLES=2000 CORGI_PLANNER_EPOCHS=20 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- planner
python3 -c "
import json
d = json.load(open('BENCH_planner.json'))
assert d['choice_clustered'] in ('corgi2', 'block_reversal'), d['choice_clustered']
assert d['choice_shuffled'] == 'corgipile', d['choice_shuffled']
assert d['recluster_within_budget'], d
" || { echo "BENCH_planner.json failed the planner gate"; exit 1; }

banner "Ingest + continuous training (concurrent INSERT/TRAIN, table-WAL crash matrix)"
cargo test --release --test ingest_train

banner "Ingest bench (smoke scale)"
# Gated: TRAIN … CONTINUOUS must reach the retrain-from-scratch arm's
# final loss with measurably less device I/O on the same drift schedule,
# and the continuous rerun must stay bit-identical.
CORGI_INGEST_TUPLES=2000 CORGI_INGEST_EPOCHS=3 CORGI_INGEST_ROWS=2000 CORGI_INGEST_BATCH=100 \
  cargo run --release -p corgipile-bench --bin corgi-bench -- ingest
python3 -c "
import json
d = json.load(open('BENCH_ingest.json'))
assert d['drift']['continuous_io_bytes'] < d['drift']['retrain_io_bytes'], d['drift']
assert d['continuous_reaches_target'], d['drift']
assert d['bit_identical_all'], 'continuous rerun diverged'
" || { echo "BENCH_ingest.json failed the ingest gate"; exit 1; }

banner "Repo benchmark (quick): harness unit tests + every workload's output checks"
# Not a performance gate: --quick shortens the runs; a workload whose
# output checks fail (correct = false, failed > 0) exits non-zero.
(cd benchmark && cargo test --offline)
bash benchmark/run.sh --quick

banner "CI gate passed"
