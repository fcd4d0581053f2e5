// Figure 4 — the UNDO algorithm: the "experimental studies" the paper
// defers to future work (§6).
//
// Workload: K independent clusters, each enabling a CTP -> CFO -> DCE
// chain (3K transformations total, applied phase by phase so undoing an
// early transformation has a long suffix of later ones). Three strategies
// remove the first cluster's CTP:
//
//   independent     — the paper's Figure-4 UNDO: recursive affecting /
//                     affected analysis; only the victim's own chain (3
//                     transformations) is unwound;
//   reverse-suffix  — the prior-work baseline [5]: undo in reverse
//                     application order until the victim is gone (all 3K
//                     transformations unwound);
//   redo-all        — the incremental-reoptimization strawman: rebuild
//                     from the original source, re-applying everything
//                     except the victim's chain.
//
// Ablation: the reverse-destroy heuristic (published Table 4 vs. the
// conservative all-'x' table) and the event-driven regional analysis
// (on/off), reported as candidate/safety-check counts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/support/benchjson.h"
#include "pivot/support/table.h"

namespace pivot {
namespace {

std::string ClusterSource(int clusters) {
  std::ostringstream os;
  for (int k = 0; k < clusters; ++k) {
    os << "c" << k << " = 1\n";
    os << "x" << k << " = c" << k << " + 2\n";
  }
  for (int k = 0; k < clusters; ++k) {
    os << "write x" << k << "\n";
  }
  return os.str();
}

struct Applied {
  std::vector<OrderStamp> ctps, cfos, dces;
};

Applied ApplyChains(Session& s, int clusters) {
  Applied applied;
  for (int k = 0; k < clusters; ++k) {
    applied.ctps.push_back(*s.ApplyFirst(TransformKind::kCtp));
  }
  for (int k = 0; k < clusters; ++k) {
    applied.cfos.push_back(*s.ApplyFirst(TransformKind::kCfo));
  }
  for (int k = 0; k < clusters; ++k) {
    applied.dces.push_back(*s.ApplyFirst(TransformKind::kDce));
  }
  return applied;
}

int LiveCount(Session& s) {
  return static_cast<int>(s.history().Live().size());
}

// Full runs sweep to 32 clusters; the bench-smoke ctest entry caps the
// sweep so every table still prints without the tier-1 run crawling.
std::vector<int> ClusterSweep() {
  return BenchSmokeMode() ? std::vector<int>{4, 8}
                          : std::vector<int>{4, 8, 16, 32};
}

void PrintScalingTable(BenchJson& json) {
  TextTable table({"clusters", "applied", "independent: undone",
                   "independent: safety checks",
                   "independent: analysis rebuilds",
                   "reverse-suffix: undone", "redo-all: re-applied"});
  for (int clusters : ClusterSweep()) {
    const std::string src = ClusterSource(clusters);

    // Independent order (the paper's algorithm).
    int indep_undone = 0, indep_safety = 0;
    std::uint64_t indep_rebuilds = 0;
    {
      Session s(Parse(src));
      const Applied applied = ApplyChains(s, clusters);
      const int before = LiveCount(s);
      const UndoStats stats = s.Undo(applied.ctps[0]);
      indep_undone = before - LiveCount(s);
      indep_safety = stats.safety_checks;
      indep_rebuilds = stats.analysis_rebuilds;  // Figure 4 line 13 cost
    }

    // Reverse application order until the victim is gone.
    int reverse_undone = 0;
    {
      Session s(Parse(src));
      const Applied applied = ApplyChains(s, clusters);
      while (!s.history().FindByStamp(applied.ctps[0])->undone) {
        s.UndoLast();
        ++reverse_undone;
      }
    }

    // Redo everything except the victim's chain from scratch.
    int redo_applied = 0;
    {
      Session s(Parse(src));
      // Skip cluster 0 entirely: apply the other clusters' chains.
      for (TransformKind kind :
           {TransformKind::kCtp, TransformKind::kCfo, TransformKind::kDce}) {
        const auto ops = s.FindOpportunities(kind);
        (void)ops;
        for (int k = 1; k < clusters; ++k) {
          const auto fresh = s.FindOpportunities(kind);
          // Applying any opportunity not belonging to cluster 0.
          for (const auto& op : fresh) {
            if (op.Describe(s.program()).find("c0") == std::string::npos &&
                op.Describe(s.program()).find("x0") == std::string::npos) {
              s.Apply(op);
              ++redo_applied;
              break;
            }
          }
        }
      }
    }

    table.AddRow({std::to_string(clusters), std::to_string(3 * clusters),
                  std::to_string(indep_undone), std::to_string(indep_safety),
                  std::to_string(indep_rebuilds),
                  std::to_string(reverse_undone),
                  std::to_string(redo_applied)});
    json.Row()
        .Str("experiment", "scaling")
        .Int("clusters", static_cast<std::uint64_t>(clusters))
        .Int("applied", static_cast<std::uint64_t>(3 * clusters))
        .Int("independent_undone", static_cast<std::uint64_t>(indep_undone))
        .Int("independent_safety_checks",
             static_cast<std::uint64_t>(indep_safety))
        .Int("independent_analysis_rebuilds", indep_rebuilds)
        .Int("reverse_suffix_undone",
             static_cast<std::uint64_t>(reverse_undone))
        .Int("redo_all_reapplied", static_cast<std::uint64_t>(redo_applied));
  }
  std::cout << "== Figure 4 experiment: undoing the first CTP out of 3K "
               "transformations ==\n"
            << table.Render() << '\n';
}

void PrintAblationTable() {
  TextTable table({"heuristic", "regional", "candidates", "in region",
                   "marked (Table 4)", "safety checks", "undone"});
  for (bool conservative : {false, true}) {
    for (bool regional : {true, false}) {
      UndoOptions options;
      options.heuristic = conservative
                              ? UndoOptions::Heuristic::kConservative
                              : UndoOptions::Heuristic::kPublished;
      options.regional = regional;
      Session s(Parse(ClusterSource(16)), options);
      const Applied applied = ApplyChains(s, 16);
      const UndoStats stats = s.Undo(applied.ctps[0]);
      table.AddRow({conservative ? "conservative" : "published (Table 4)",
                    regional ? "on" : "off",
                    std::to_string(stats.candidates_total),
                    std::to_string(stats.candidates_in_region),
                    std::to_string(stats.candidates_marked),
                    std::to_string(stats.safety_checks),
                    std::to_string(stats.transforms_undone)});
    }
  }
  std::cout << "== ablation: reverse-destroy heuristic x regional "
               "analysis (16 clusters) ==\n"
            << table.Render() << '\n';
}

// A/B: the region-indexed undo planner (persistent index + one batched
// UndoSet transaction) against the seed engine (linear history scans,
// one Undo transaction per stamp) reverting the whole chains of the
// *earliest* clusters out of a long history. The seed engine pays, per
// stamp, a full-history linear scan (every later live record gets the
// exact containment predicate) plus an analysis re-derivation window
// the moment a restored statement's deferred safety obligation queries
// liveness/reaching against the just-mutated program. The planner
// inverts the whole set back to back first (no analysis query
// interleaves with the mutations), then adjudicates the scans through
// the index's buckets — one shared analysis window and near-zero
// candidate enumeration instead of one window and one O(history) walk
// per stamp.
// Returns false when the two engines diverge or (outside smoke mode)
// the 200+-record speedup falls below the 3x acceptance floor.
//
// The A/B runs twice, over nested clusters (one loop per cluster) and
// over the flat top-level ClusterSource. The flat rows regression-pin
// the top-level-Delete region fix: restored top-level statements used to
// derive their region from the parent block — at top level the whole
// program, which no index can prune — so the planner degenerated to a
// linear scan exactly on flat programs. Regions of top-level sites are
// now anchored to the touched statement's predecessor/successor
// neighborhood instead, keeping flat undos cluster-local too.
std::string NestedClusterSource(int clusters) {
  std::ostringstream os;
  for (int k = 0; k < clusters; ++k) {
    os << "do i" << k << " = 1, 4\n";
    os << "  c" << k << " = 1\n";
    os << "  x" << k << " = c" << k << " + 2\n";
    os << "  write x" << k << "\n";
    os << "enddo\n";
  }
  return os.str();
}

bool PrintPlannerTable(BenchJson& json, bool flat) {
  const int kRepeats = BenchSmokeMode() ? 1 : 5;
  const std::vector<int> sizes =
      BenchSmokeMode() ? std::vector<int>{8} : std::vector<int>{16, 32, 70};
  bool ok = true;
  TextTable table({"clusters", "records", "targets", "undone",
                   "linear: ms", "planner: ms", "speedup",
                   "candidates (lin/plan)", "rebuilds (lin/plan)",
                   "identical"});
  for (int clusters : sizes) {
    const std::string src =
        flat ? ClusterSource(clusters) : NestedClusterSource(clusters);
    const int num_chains = clusters < 8 ? clusters : 8;
    const int num_targets = 3 * num_chains;
    const auto chain_stamps = [num_chains](const Applied& applied) {
      std::vector<OrderStamp> stamps;
      stamps.reserve(static_cast<std::size_t>(3 * num_chains));
      for (int k = 0; k < num_chains; ++k) {
        stamps.push_back(applied.ctps[k]);
        stamps.push_back(applied.cfos[k]);
        stamps.push_back(applied.dces[k]);
      }
      return stamps;
    };
    double linear_ms = 0, planner_ms = 0;
    int linear_undone = 0, planner_undone = 0;
    UndoStats linear_stats, planner_stats;
    std::string linear_src, planner_src;
    for (int rep = 0; rep < kRepeats; ++rep) {
      {
        // Seed configuration: no index, one Undo transaction per stamp,
        // latest first (the order UndoSet adjudicates in).
        UndoOptions options;
        options.indexed = false;
        Session s(Parse(src), options);
        const Applied applied = ApplyChains(s, clusters);
        std::vector<OrderStamp> stamps = chain_stamps(applied);
        std::sort(stamps.begin(), stamps.end(),
                  [](OrderStamp a, OrderStamp b) { return a > b; });
        const int before = LiveCount(s);
        const auto t0 = std::chrono::steady_clock::now();
        for (const OrderStamp stamp : stamps) {
          if (s.history().FindByStamp(stamp)->undone) continue;
          linear_stats += s.Undo(stamp);
        }
        const auto t1 = std::chrono::steady_clock::now();
        linear_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        linear_undone = before - LiveCount(s);
        linear_src = s.Source();
      }
      {
        Session s(Parse(src));  // indexed planner is the default
        const Applied applied = ApplyChains(s, clusters);
        const std::vector<OrderStamp> targets = chain_stamps(applied);
        const int before = LiveCount(s);
        const auto t0 = std::chrono::steady_clock::now();
        planner_stats += s.UndoSet(targets);
        const auto t1 = std::chrono::steady_clock::now();
        planner_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        planner_undone = before - LiveCount(s);
        planner_src = s.Source();
      }
    }
    const bool identical =
        linear_src == planner_src && linear_undone == planner_undone;
    ok = ok && identical;
    const double speedup = planner_ms > 0 ? linear_ms / planner_ms : 0;
    if (!BenchSmokeMode() && 3 * clusters >= 200 && speedup < 3.0) {
      std::cerr << "FAIL: planner speedup " << speedup << "x on "
                << 3 * clusters << " records is below the 3x floor\n";
      ok = false;
    }
    const auto fmt = [](double value) {
      std::ostringstream os;
      os.precision(3);
      os << std::fixed << value;
      return os.str();
    };
    table.AddRow({std::to_string(clusters), std::to_string(3 * clusters),
                  std::to_string(num_targets),
                  std::to_string(planner_undone), fmt(linear_ms / kRepeats),
                  fmt(planner_ms / kRepeats), fmt(speedup),
                  std::to_string(linear_stats.candidates_total) + "/" +
                      std::to_string(planner_stats.candidates_total),
                  std::to_string(linear_stats.analysis_rebuilds) + "/" +
                      std::to_string(planner_stats.analysis_rebuilds),
                  identical ? "yes" : "NO"});
    json.Row()
        .Str("experiment", flat ? "planner_ab_flat" : "planner_ab")
        .Int("clusters", static_cast<std::uint64_t>(clusters))
        .Int("records", static_cast<std::uint64_t>(3 * clusters))
        .Int("targets", static_cast<std::uint64_t>(num_targets))
        .Int("undone", static_cast<std::uint64_t>(planner_undone))
        .Num("linear_ms", linear_ms / kRepeats)
        .Num("planner_ms", planner_ms / kRepeats)
        .Num("speedup", speedup)
        .Int("linear_candidates",
             static_cast<std::uint64_t>(linear_stats.candidates_total) /
                 kRepeats)
        .Int("planner_candidates",
             static_cast<std::uint64_t>(planner_stats.candidates_total) /
                 kRepeats)
        .Int("linear_rebuilds", linear_stats.analysis_rebuilds / kRepeats)
        .Int("planner_rebuilds", planner_stats.analysis_rebuilds / kRepeats)
        .Str("identical", identical ? "yes" : "no");
  }
  std::cout << "== planner A/B (" << (flat ? "flat top-level" : "nested")
            << " clusters): revert the 8 earliest chains, indexed batch "
               "vs seed linear (mean of " << kRepeats << " runs) ==\n"
            << table.Render() << '\n';
  return ok;
}

void BM_IndependentUndo(benchmark::State& state) {
  const int clusters = static_cast<int>(state.range(0));
  const std::string src = ClusterSource(clusters);
  for (auto _ : state) {
    state.PauseTiming();
    Session s(Parse(src));
    const Applied applied = ApplyChains(s, clusters);
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.Undo(applied.ctps[0]));
  }
  state.SetLabel("3K=" + std::to_string(3 * clusters));
}
BENCHMARK(BM_IndependentUndo)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(5)->Unit(benchmark::kMicrosecond);

void BM_ReverseSuffixUndo(benchmark::State& state) {
  const int clusters = static_cast<int>(state.range(0));
  const std::string src = ClusterSource(clusters);
  for (auto _ : state) {
    state.PauseTiming();
    Session s(Parse(src));
    const Applied applied = ApplyChains(s, clusters);
    state.ResumeTiming();
    while (!s.history().FindByStamp(applied.ctps[0])->undone) {
      s.UndoLast();
    }
  }
  state.SetLabel("3K=" + std::to_string(3 * clusters));
}
BENCHMARK(BM_ReverseSuffixUndo)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(5)->Unit(benchmark::kMicrosecond);

void BM_RedoAllFromScratch(benchmark::State& state) {
  const int clusters = static_cast<int>(state.range(0));
  const std::string src = ClusterSource(clusters);
  for (auto _ : state) {
    // The strawman pays parsing + full re-application.
    Session s(Parse(src));
    for (TransformKind kind :
         {TransformKind::kCtp, TransformKind::kCfo, TransformKind::kDce}) {
      for (int k = 1; k < clusters; ++k) {
        const auto ops = s.FindOpportunities(kind);
        bool applied_one = false;
        for (const auto& op : ops) {
          const std::string what = op.Describe(s.program());
          if (what.find("c0") == std::string::npos &&
              what.find("x0") == std::string::npos) {
            s.Apply(op);
            applied_one = true;
            break;
          }
        }
        if (!applied_one) break;
      }
    }
    benchmark::DoNotOptimize(s.history().records().size());
  }
  state.SetLabel("3K=" + std::to_string(3 * clusters));
}
BENCHMARK(BM_RedoAllFromScratch)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(5)->Unit(benchmark::kMicrosecond);

// The regional / heuristic ablation as timed benchmarks.
void BM_UndoAblation(benchmark::State& state) {
  const bool conservative = state.range(0) != 0;
  const bool regional = state.range(1) != 0;
  const int clusters = 16;
  const std::string src = ClusterSource(clusters);
  UndoOptions options;
  options.heuristic = conservative ? UndoOptions::Heuristic::kConservative
                                   : UndoOptions::Heuristic::kPublished;
  options.regional = regional;
  for (auto _ : state) {
    state.PauseTiming();
    Session s(Parse(src), options);
    const Applied applied = ApplyChains(s, clusters);
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.Undo(applied.ctps[0]));
  }
  std::ostringstream label;
  label << (conservative ? "conservative" : "published") << "/"
        << (regional ? "regional" : "global");
  state.SetLabel(label.str());
}
BENCHMARK(BM_UndoAblation)
    ->Args({0, 1})->Args({0, 0})->Args({1, 1})->Args({1, 0})
    ->Iterations(5)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  pivot::BenchJson json("fig4_undo_scaling");
  pivot::PrintScalingTable(json);
  pivot::PrintAblationTable();
  const bool planner_ok = pivot::PrintPlannerTable(json, /*flat=*/false) &&
                          pivot::PrintPlannerTable(json, /*flat=*/true);
  const std::string path = json.WriteFile();
  if (!path.empty()) std::cout << "wrote " << path << '\n';
  if (pivot::BenchSmokeMode()) return planner_ok ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return planner_ok ? 0 : 1;
}
