#!/usr/bin/env bash
# Builds the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer
# and runs the tier-1 suite plus the fault-injection atomicity suite under
# both. Any sanitizer report fails the job (halt_on_error, and the build
# sets -fno-sanitize-recover=all so UBSan reports abort too). A second
# ThreadSanitizer build then re-runs the suites that exercise the
# multi-threaded paths (the server, its group commit and crash soak).
#
# Usage: ci/run_sanitizers.sh [build-dir] [tsan-build-dir]
#        (defaults: build-asan build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_BUILD_DIR="${2:-build-tsan}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

cmake -B "$BUILD_DIR" -S . -DPIVOT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Tier-1: the full test suite (units, scenarios, randomized properties).
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The fault-injection and analysis-cache differential suites are part of
# ctest above; run the binaries once more on their own so their sanitizer
# output is easy to find in CI logs.
"$BUILD_DIR"/tests/fault_injection_tests
"$BUILD_DIR"/tests/analysis_cache_tests

# Crash-consistency soak: the durable-journal crash-point sweep, reusing
# this script's ASan build tree (see ci/run_crash_soak.sh for the rationale).
ci/run_crash_soak.sh "$BUILD_DIR"

# Server soak: the server.* crash sweep plus the concurrent crash/recover
# cycles (see ci/run_server_soak.sh; PIVOT_FUZZ_SEED seeds the latter).
ci/run_server_soak.sh "$BUILD_DIR"

# Growth soak: journal compaction must keep a 10k-op session's journal
# bounded, and a 64-client commit storm must recover after a restart (see
# ci/run_growth_soak.sh).
ci/run_growth_soak.sh "$BUILD_DIR"

# Search soak: seeded backtracking-search schedules whose accepted-prefix
# oracle must hold under ASan — thousands of reject-by-undo rollbacks per
# schedule, plus a trace replay per run (see ci/run_search_soak.sh).
ci/run_search_soak.sh "$BUILD_DIR"

# Swarm soak: multi-process network chaos (torn frames, stalls, client
# and server SIGKILLs) against the TCP/unix listeners under aggressive
# session passivation; no acked commit may be lost across restarts (see
# ci/run_swarm_soak.sh).
ci/run_swarm_soak.sh "$BUILD_DIR"

echo "ASan+UBSan run complete"

# ThreadSanitizer job: rebuild with -fsanitize=thread (ASan and TSan cannot
# share a binary, hence the separate tree) and run the suites that run
# work on several threads, plus the planner, analysis-cache and
# fault-injection suites.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

cmake -B "$TSAN_BUILD_DIR" -S . -DPIVOT_SANITIZE_THREAD=ON \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)" --target \
      planner_tests analysis_cache_tests fault_injection_tests \
      server_tests server_crash_tests

"$TSAN_BUILD_DIR"/tests/planner_tests
"$TSAN_BUILD_DIR"/tests/analysis_cache_tests
"$TSAN_BUILD_DIR"/tests/fault_injection_tests
# The server is the most thread-heavy subsystem in the tree: group-commit
# worker + per-connection threads + concurrent committers in the soak.
"$TSAN_BUILD_DIR"/tests/server_tests
"$TSAN_BUILD_DIR"/tests/server_crash_tests

echo "sanitizer run complete: all tests clean under ASan+UBSan and TSan"
