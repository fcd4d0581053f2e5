#!/usr/bin/env bash
# Server crash-and-concurrency soak under AddressSanitizer +
# UndefinedBehaviorSanitizer. Two layers:
#
#   * the deterministic crash sweep (tests/server_crash_test.cc): every
#     server.* fault point — torn session-WAL frames, the gap between the
#     session append and the group enqueue, a batch written but not yet
#     synced, the post-sync/pre-ack window, snapshots — crossed at
#     every countdown, each time restarting the server over the same data
#     directory and asserting both sessions recover to exactly the acked
#     (or acked + the single in-flight) prefix;
#   * the probabilistic concurrent soak (ConcurrentCrashSoakLosesNoAckedCommit):
#     several client threads committing in parallel, a fault armed at a
#     PIVOT_FUZZ_SEED-derived random crossing, then recovery of every
#     session with the same no-acked-commit-lost oracle. PIVOT_SOAK_ROUNDS
#     scales the number of crash/recover cycles.
#
# The functional server suite rides along: it covers the non-crash half
# (admission control, deadlines, degraded mode, transient absorption,
# drain, disconnects) with the sanitizers watching the threaded paths.
#
# Usage: ci/run_server_soak.sh [build-dir]    (default: build-asan)
#        PIVOT_FUZZ_SEED=N     seed for the probabilistic soak (default 1)
#        PIVOT_SOAK_ROUNDS=N   crash/recover cycles per seed (default 4)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export PIVOT_FUZZ_SEED="${PIVOT_FUZZ_SEED:-1}"
export PIVOT_SOAK_ROUNDS="${PIVOT_SOAK_ROUNDS:-4}"

cmake -B "$BUILD_DIR" -S . -DPIVOT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target server_tests server_crash_tests

"$BUILD_DIR"/tests/server_tests
"$BUILD_DIR"/tests/server_crash_tests

echo "server soak complete: every server crash point recovered the acked prefix under ASan+UBSan (seed=$PIVOT_FUZZ_SEED rounds=$PIVOT_SOAK_ROUNDS)"
