#!/usr/bin/env bash
# Journal-growth soak: proves the two retention mechanisms keep journal
# files tracking live state instead of accumulating every frame ever
# written (DESIGN.md §13). Two phases, driven by tools/growth_soak.cc,
# each running its workload with the growth fix off and on and gating on
# the byte ratio:
#
#   * session phase — PIVOT_GROWTH_OPS (default 10000) apply/undo commits
#     against one DurableJournal with snapshots, compaction off vs on; the
#     compacted journal's peak must stay >= 4x below the uncompacted
#     final size, and the compacted journal must recover cleanly to the
#     same source;
#   * server phase — PIVOT_GROWTH_CLIENTS (default 64) threads committing
#     PIVOT_GROWTH_CLIENT_OPS (default 256) ops each, server.gwal
#     retention off vs on; the retained log's peak must stay >= 2x below
#     the unretained one, a quiesced explicit pass must reclaim it below
#     the retention threshold, and a restart must recover all sessions.
#
# Meant to run inside the sanitizer job (ci/run_sanitizers.sh) so ASan
# watches the retention passes racing live commit traffic.
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

echo "growth soak complete: journal and group log stay bounded under sustained load"
