#!/usr/bin/env bash
# Builds the bench binaries and runs every one of them from the repo root,
# so each BenchJson emitter drops its BENCH_<name>.json next to this
# script's parent directory. The JSON files are committed: CI diffs them
# across commits to catch metric regressions (and the fig4 planner A/B
# enforces its >=3x speedup gate via the binary's exit code). Then runs
# the repo benchmark's correctness smoke (perfbench/smoke.py: every
# BENCHMARK.json workload at tiny sizes, checked op by op), which drives
# the server's commit, passivation and reactivation paths end to end.
#
# Usage: ci/run_benches.sh [build-dir]        (default: build)
#   PIVOT_BENCH_SMOKE=1 ci/run_benches.sh     # quick smoke pass
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"

status=0
for bench in "$BUILD_DIR"/bench/*; do
  [ -x "$bench" ] || continue
  echo "== running $(basename "$bench") =="
  if ! "$bench"; then
    echo "FAIL: $(basename "$bench")" >&2
    status=1
  fi
done

echo "== running perfbench/smoke.py =="
if ! python3 perfbench/smoke.py; then
  echo "FAIL: perfbench/smoke.py" >&2
  status=1
fi

ls -l BENCH_*.json || true
exit "$status"
