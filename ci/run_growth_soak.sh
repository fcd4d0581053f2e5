#!/usr/bin/env bash
# Journal-growth soak: proves journal compaction keeps a journal file
# tracking live state instead of accumulating every frame ever written
# (DESIGN.md §13), then checks the server under many committing clients.
# Two phases, driven by tools/growth_soak.cc:
#
#   * session phase — PIVOT_GROWTH_OPS (default 10000) apply/undo commits
#     against one DurableJournal with snapshots, compaction off vs on; the
#     compacted journal's peak must stay >= 4x below the uncompacted
#     final size, and the compacted journal must recover cleanly to the
#     same source;
#   * server phase — PIVOT_GROWTH_CLIENTS (default 64) threads committing
#     PIVOT_GROWTH_CLIENT_OPS (default 256) ops each under group commit;
#     a restart must recover every session to its committed state.
#
# Meant to run inside the sanitizer job (ci/run_sanitizers.sh) so ASan
# watches compaction and the group-commit worker under sustained load.
#
# Usage: ci/run_growth_soak.sh [build-dir]    (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

cmake -B "$BUILD_DIR" -S . -DPIVOT_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target growth_soak

"$BUILD_DIR"/tools/growth_soak

echo "growth soak complete: compacted journal stays bounded; every server session recovers"
