#!/usr/bin/env bash
# Run every bench binary at its smallest useful scale with --runs=1 and
# --json, validating each artifact with check_bench_json.py. This is CI's
# smoke-bench step, kept as a script so it can be reproduced locally:
#
#   scripts/run_smoke_benches.sh build out/
#
# Scales are chosen so the whole sweep finishes in a few minutes on one
# core; they exercise every code path, not every data point.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-json}"
BENCH_DIR="$BUILD_DIR/bench"
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"

[ -d "$BENCH_DIR" ] || { echo "no bench dir at $BENCH_DIR" >&2; exit 2; }
mkdir -p "$OUT_DIR"

run() {
  local name="$1"; shift
  echo "--- $name $*"
  "$BENCH_DIR/$name" --runs=1 --json="$OUT_DIR/$name.json" "$@" \
    > "$OUT_DIR/$name.txt"
}

run bench_table1_suggestions
run bench_table2_metrics --scale=0.02
run bench_table3_dataset --instances=20000
run bench_table4_weka --instances=200
run bench_fig_views
run bench_fig4_profiler
run bench_fig5_optimizer
run bench_tier_frontier --kernel-iters=20000
run bench_scaling_instances --sizes=300,500
run bench_ablation_rules
run bench_ablation_costmodel --trials=1 --instances=300
run bench_gc --iters=2000
run bench_obs_overhead --reps=3
run bench_fault_overhead --reps=3
run bench_vm_micro --benchmark_min_time=0.01
run bench_ml_micro --benchmark_min_time=0.01
run bench_jepod --clients=1,4 --jobs=20 --sources=3
run bench_predictor --programs=6

# One intervals pass: the bootstrap CI fields must appear on every row and
# satisfy the validator's bracketing + widen-factor checks.
echo "--- bench_table4_weka --intervals"
"$BENCH_DIR/bench_table4_weka" --runs=2 --instances=200 --intervals \
  --resamples=50 --json="$OUT_DIR/bench_table4_weka_intervals.json" \
  > "$OUT_DIR/bench_table4_weka_intervals.txt"

# One fault-injected pass: flagged rows and degradation counters must show
# up in the JSON (the validator enforces both) and nothing may crash.
echo "--- bench_table4_weka --fault-plan=chaos"
"$BENCH_DIR/bench_table4_weka" --runs=2 --instances=200 --fault-plan=chaos \
  --json="$OUT_DIR/bench_table4_weka_chaos.json" \
  > "$OUT_DIR/bench_table4_weka_chaos.txt"

python3 "$SCRIPT_DIR/check_bench_json.py" "$OUT_DIR"/*.json
echo "smoke benches OK: $(ls "$OUT_DIR"/*.json | wc -l) reports in $OUT_DIR"
