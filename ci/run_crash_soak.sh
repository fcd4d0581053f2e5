#!/usr/bin/env bash
# Crash-consistency soak: the journal crash-point sweep under
# AddressSanitizer + UndefinedBehaviorSanitizer. Every persist.* fault
# point is crossed at every countdown (tests/journal_crash_test.cc), so a
# single pass here kills the journal writer at every reachable byte
# boundary and asserts Session::Recover lands on an oracle-equivalent,
# validator-clean prefix — with the sanitizers watching the recovery path
# itself for leaks and UB.
#
# The server crash sweep follows: the same kill-and-recover check at every
# server.* and server.evict.* point, and at the persist.* points a server
# session's WAL and its passivation Checkpoint cross
# (tests/server_crash_test.cc).
#
# The persist unit suite (codec round-trips, torn-tail truncation, report
# goldens) rides along: it is cheap and covers the non-crash half of the
# durability surface.
#
# Usage: ci/run_crash_soak.sh [build-dir]    (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

cmake -B "$BUILD_DIR" -S . -DPIVOT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target journal_crash_tests persist_tests server_crash_tests

"$BUILD_DIR"/tests/persist_tests
"$BUILD_DIR"/tests/journal_crash_tests
"$BUILD_DIR"/tests/server_crash_tests

echo "crash soak complete: every journal and server crash point recovered clean under ASan+UBSan"
