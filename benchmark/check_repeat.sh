#!/usr/bin/env bash
# Repeatability check: three full sets of runs, back to back, of the same code.
#
#   benchmark/check_repeat.sh [runs_per_set=10] [seconds=run_seconds]
#
# A set is `runs_per_set` untraced runs of every workload, each with another
# seed (the same seeds in every set). For every end-to-end metric and workload
# it reports each set's median and spread — the distance between the first and
# third quartile as a share of the median, with the quartiles of Python's
# statistics.quantiles(n=4) — and fails if
#   * a spread exceeds the metric's bound (setup_s excepted), or
#   * two set medians differ by more than the bound, or
#   * a count that must repeat exactly (device_bytes_per_row,
#     stored_bytes_per_user_byte, failures) differs between sets.
# Raw outputs land in benchmark/out/repeat/; the table is printed as markdown.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json;print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}"
dir="$here/out/repeat"
rm -rf "$dir"
mkdir -p "$dir"

for set in 1 2 3; do
  for seed in $(seq 1 "$runs"); do
    for w in train_narrow train_wide predict_filter ingest_mixed; do
      "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$dir/set$set-$w-$seed.json"
    done
  done
done

python3 - "$here/../BENCHMARK.json" "$dir" <<'EOF'
import glob, json, statistics, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
exact = {"device_bytes_per_row", "stored_bytes_per_user_byte"}
failures = []

def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

print("| workload | metric | bound | set 1 median (spread) | set 2 median (spread) | set 3 median (spread) | max median shift |")
print("|---|---|---|---|---|---|---|")
for w in [x["name"] for x in spec["workloads"]]:
    sets = []
    for s in (1, 2, 3):
        results = [json.load(open(f)) for f in sorted(glob.glob(f"{sys.argv[2]}/set{s}-{w}-*.json"))]
        failed = sum(r["failed"] for r in results)
        if failed or not all(r["correct"] for r in results):
            failures.append(f"{w} set {s}: {failed} failed operations")
        sets.append({n: [r["metrics"][n]["value"] for r in results] for n in bounds})
    for name, bound in bounds.items():
        medians = [statistics.median(s[name]) for s in sets]
        spreads = [spread(s[name]) for s in sets]
        shift = max(medians) / min(medians) - 1
        cells = " | ".join(f"{m:.6g} ({sp:.3f})" for m, sp in zip(medians, spreads))
        print(f"| {w} | {name} | {bound} | {cells} | {shift:.4f} |")
        if name != "setup_s" and max(spreads) > bound:
            failures.append(f"{w} {name}: spread {max(spreads):.4f} exceeds bound {bound}")
        if shift > bound:
            failures.append(f"{w} {name}: set medians differ by {shift:.4f}, bound {bound}")
        if name in exact and len({repr(m) for m in medians}) != 1:
            failures.append(f"{w} {name}: not identical across sets: {medians}")

print()
if failures:
    print("FAIL")
    for f in failures:
        print(" -", f)
    sys.exit(1)
print("PASS: every spread and every shift of a set median is within its bound")
EOF
