// Durable-journal cost study (DESIGN.md §11).
//
// Two questions the durability layer has to answer with numbers:
//   * what does write-ahead logging cost per committed operation —
//     no journal vs journal (fsync off) vs journal (fsync on);
//   * how does recovery latency scale once snapshots are enabled: it
//     must track the tail length (operations since the last snapshot),
//     not the total history length. The study below builds journals of
//     growing history with snapshots off and on, times Session::Recover
//     for each, and gates on the deterministic half of the claim — with
//     snapshots enabled the replayed-operation count stays bounded by
//     the snapshot interval no matter how long the history grows.
//
// Results land in BENCH_journal.json (see support/benchjson.h).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/durable.h"
#include "pivot/support/benchjson.h"

namespace pivot {
namespace {

// One constant-fold site per statement: every kCfo apply is one committed
// transaction, so `sites` controls the journal's history length exactly.
Program MakeFoldableProgram(int sites) {
  std::ostringstream src;
  for (int i = 0; i < sites; ++i) {
    src << "x" << i << " = " << (i % 7 + 1) << " + " << (i % 5 + 1) << "\n";
  }
  for (int i = 0; i < sites; ++i) src << "write x" << i << "\n";
  return Parse(src.str());
}

int ApplyFolds(Session& s, int n) {
  int applied = 0;
  for (int i = 0; i < n; ++i) {
    const std::vector<Opportunity> ops =
        s.FindOpportunities(TransformKind::kCfo);
    if (ops.empty()) break;
    s.Apply(ops.front());
    ++applied;
  }
  return applied;
}

std::string TmpWalPath() { return "/tmp/pivot_bench_journal.wal"; }

// Leaves durability to the kernel (see JournalAck).
const JournalAck kNoSync = [](FrameType, WalWriter&) {};

std::uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

// Append cost: a fixed apply workload, committed bare / journaled /
// journaled+fsync. items_processed = committed operations.
void BM_JournalAppend(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const int sites = 64;
  for (auto _ : state) {
    state.PauseTiming();
    Session s(MakeFoldableProgram(sites));
    std::unique_ptr<DurableJournal> journal;
    if (mode > 0) {
      journal = DurableJournal::Create(
          s, TmpWalPath(), {}, mode == 2 ? JournalAck{} : kNoSync);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(ApplyFolds(s, sites));
  }
  state.SetItemsProcessed(state.iterations() * sites);
  state.SetLabel(mode == 0   ? "no-journal"
                 : mode == 1 ? "journal"
                             : "journal+fsync");
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->Arg(2)->ArgName("mode");

// The printed artifact + JSON: recovery latency across history lengths,
// snapshots off vs on. Returns false when the tail-replay bound is
// violated (replayed operations exceed the snapshot interval).
bool RecoveryLatencyStudy(BenchJson& json) {
  const bool smoke = BenchSmokeMode();
  const std::vector<int> histories =
      smoke ? std::vector<int>{8, 16} : std::vector<int>{100, 400, 1600};
  const int interval_on = smoke ? 4 : 64;
  const int reps = smoke ? 1 : 3;

  std::printf("== Recovery latency: full replay vs snapshot + tail ==\n");
  std::printf("%8s %9s %12s %9s %9s\n", "history", "snapshot", "recover_ms",
              "replayed", "bytes");
  bool tail_bound_ok = true;
  for (const int history : histories) {
    for (const int interval : {0, interval_on}) {
      const std::string path = TmpWalPath();
      {
        Session s(MakeFoldableProgram(history));
        PersistOptions p;
        p.snapshot_interval = interval;
        // kNoSync: measure replay cost, not the build's fsyncs.
        const auto journal = DurableJournal::Create(s, path, p, kNoSync);
        if (ApplyFolds(s, history) != history) {
          std::fprintf(stderr, "workload underfilled at history=%d\n",
                       history);
          return false;
        }
      }
      double best_ms = 0;
      std::uint64_t replayed = 0;
      for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        const RecoverResult result = Session::Recover(path);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < best_ms) best_ms = ms;
        replayed = result.report.txns_replayed;
        if (!result.report.validator_ok) {
          std::fprintf(stderr, "recovered state failed validation\n");
          return false;
        }
      }
      const std::uint64_t bytes = FileBytes(path);
      std::printf("%8d %9d %12.3f %9llu %9llu\n", history, interval, best_ms,
                  static_cast<unsigned long long>(replayed),
                  static_cast<unsigned long long>(bytes));
      json.Row()
          .Int("history", static_cast<std::uint64_t>(history))
          .Int("snapshot_interval", static_cast<std::uint64_t>(interval))
          .Num("recover_ms", best_ms)
          .Int("ops_replayed", replayed)
          .Int("journal_bytes", bytes);
      if (interval > 0 &&
          replayed > static_cast<std::uint64_t>(interval)) {
        std::fprintf(stderr,
                     "tail-replay bound violated: replayed %llu > "
                     "interval %d at history %d\n",
                     static_cast<unsigned long long>(replayed), interval,
                     history);
        tail_bound_ok = false;
      }
    }
  }
  std::printf("tail-replay bound (replayed <= snapshot interval): %s\n\n",
              tail_bound_ok ? "ok" : "VIOLATED");
  return tail_bound_ok;
}

// Compaction A/B (DESIGN.md §13): the same snapshot-enabled workload with
// retention off and on. With `compact` set, every snapshot interval takes
// a Checkpoint instead, rewriting the journal to genesis + one snapshot of
// the live session, so the file tracks the live image instead of the
// whole history.
// Gates (full mode, history 1600 / interval 64): the compacted journal is
// >= 5x smaller than the uncompacted one, and recovery from it stays
// within 2x of the uncompacted snapshot recovery. Smoke mode only checks
// that compaction shrinks the file and recovery validates.
bool CompactionStudy(BenchJson& json) {
  const bool smoke = BenchSmokeMode();
  const int history = smoke ? 16 : 1600;
  const int interval = smoke ? 4 : 64;
  const int reps = smoke ? 1 : 3;

  struct Mode {
    const char* name;
    bool compact;
  };
  const Mode modes[] = {{"baseline", false}, {"compacted", true}};

  std::printf("== Journal growth: compaction off vs on (history=%d) ==\n",
              history);
  std::printf("%14s %12s %9s %9s\n", "mode", "recover_ms", "replayed",
              "bytes");
  double baseline_ms = 0;
  double compacted_ms = 0;
  std::uint64_t baseline_bytes = 0;
  std::uint64_t compacted_bytes = 0;
  for (const Mode& mode : modes) {
    const std::string path = TmpWalPath();
    {
      Session s(MakeFoldableProgram(history));
      PersistOptions p;
      p.snapshot_interval = interval;
      p.compact = mode.compact;
      // kNoSync: measure the rewrite and replay, not fsyncs.
      const auto journal = DurableJournal::Create(s, path, p, kNoSync);
      if (ApplyFolds(s, history) != history) {
        std::fprintf(stderr, "workload underfilled at history=%d\n",
                     history);
        return false;
      }
    }
    double best_ms = 0;
    std::uint64_t replayed = 0;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      const RecoverResult result = Session::Recover(path);
      const auto t1 = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (r == 0 || ms < best_ms) best_ms = ms;
      replayed = result.report.txns_replayed;
      if (!result.report.validator_ok) {
        std::fprintf(stderr, "recovered state failed validation (%s)\n",
                     mode.name);
        return false;
      }
    }
    const std::uint64_t bytes = FileBytes(path);
    std::printf("%14s %12.3f %9llu %9llu\n", mode.name, best_ms,
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(bytes));
    json.Row()
        .Str("mode", mode.name)
        .Int("history", static_cast<std::uint64_t>(history))
        .Int("snapshot_interval", static_cast<std::uint64_t>(interval))
        .Num("recover_ms", best_ms)
        .Int("ops_replayed", replayed)
        .Int("journal_bytes", bytes);
    (mode.compact ? compacted_ms : baseline_ms) = best_ms;
    (mode.compact ? compacted_bytes : baseline_bytes) = bytes;
  }

  bool ok = true;
  if (baseline_bytes == 0 || compacted_bytes == 0) {
    std::fprintf(stderr, "compaction study produced an empty journal\n");
    return false;
  }
  if (compacted_bytes >= baseline_bytes) {
    std::fprintf(stderr,
                 "compaction did not shrink the journal: %llu >= %llu\n",
                 static_cast<unsigned long long>(compacted_bytes),
                 static_cast<unsigned long long>(baseline_bytes));
    ok = false;
  }
  if (!smoke) {
    if (compacted_bytes * 5 > baseline_bytes) {
      std::fprintf(stderr,
                   "size gate violated: compacted %llu bytes is not >=5x "
                   "smaller than baseline %llu\n",
                   static_cast<unsigned long long>(compacted_bytes),
                   static_cast<unsigned long long>(baseline_bytes));
      ok = false;
    }
    if (compacted_ms > 2.0 * baseline_ms) {
      std::fprintf(stderr,
                   "recovery gate violated: compacted %.3f ms exceeds 2x "
                   "baseline %.3f ms\n",
                   compacted_ms, baseline_ms);
      ok = false;
    }
  }
  std::printf("compaction gates (>=5x smaller, recovery <= 2x): %s\n\n",
              ok ? "ok" : "VIOLATED");
  return ok;
}

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  pivot::BenchJson json("journal");
  const bool recovery_ok = pivot::RecoveryLatencyStudy(json);
  const bool compaction_ok = pivot::CompactionStudy(json);
  const std::string out = json.WriteFile(".");
  if (!out.empty()) std::printf("wrote %s\n", out.c_str());
  if (!pivot::BenchSmokeMode()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  return recovery_ok && compaction_ok ? 0 : 1;
}
