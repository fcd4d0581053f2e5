// Figure 3 — "Summary of data dependences on region nodes."
//
// Reproduces the paper's motivating query: can two adjacent loops be
// fused? With LCR summaries, the query inspects only the dependences
// annotated on the loops' common region node (d2 on R1 in the figure)
// instead of visiting every statement pair under both loops. The
// benchmark compares the summary-based query against the full pairwise
// dependence recomputation as the loops grow.
#include <benchmark/benchmark.h>

#include <iostream>

#include "pivot/core/session.h"
#include "pivot/ir/builder.h"
#include "pivot/support/benchjson.h"

namespace pivot {
namespace {

// Two adjacent loops with `body` statements each; one flow dependence
// (via array x) crosses between them — the d2 of Figure 3.
Program MakeAdjacentLoops(int body) {
  using namespace dsl;  // NOLINT
  ProgramBuilder b;
  b.Do("i", I(1), I(4));
  for (int k = 0; k < body; ++k) {
    b.Assign(At("u" + std::to_string(k), V("i")), Add(V("i"), I(k)));
  }
  b.Assign(At("x", V("i")), V("i"));  // source of d2
  b.End();
  b.Do("i", I(1), I(4));
  for (int k = 0; k < body; ++k) {
    b.Assign(At("v" + std::to_string(k), V("i")), Mul(V("i"), I(k + 1)));
  }
  b.Assign(At("y", V("i")), At("x", V("i")));  // sink of d2
  b.End();
  b.Write(At("y", I(2)));
  return b.Build();
}

void PrintFigure3(BenchJson& json) {
  Program p = MakeAdjacentLoops(2);
  AnalysisCache cache(p);
  const Stmt& l1 = *p.top()[0];
  const Stmt& l2 = *p.top()[1];

  std::cout << "== Figure 3 configuration ==\n" << ToSource(p) << '\n';

  const int lcr = cache.pdg().Lcr(*l1.body[0], *l2.body[0]);
  std::cout << "LCR(loop1 body, loop2 body) = node " << lcr
            << " (the root region R1 of the figure)\n";
  std::cout << "dependences summarized on it:\n";
  for (const Dependence* dep : cache.summaries().AtRegion(lcr)) {
    std::cout << "  " << dep->ToString() << '\n';
  }

  std::size_t inspected = 0;
  const auto crossing =
      cache.summaries().Between(l1, l2, /*either_direction=*/false,
                                &inspected);
  const bool prevented = FusionPrevented(p, cache.loops(), l1, l2);
  std::cout << "fusion query via summaries: inspected " << inspected
            << " summarized dependence(s), found " << crossing.size()
            << " crossing (d2)\n";
  std::cout << "fusion prevented? " << (prevented ? "yes" : "no") << "\n\n";
  json.Row()
      .Str("experiment", "fusion_query")
      .Int("lcr", static_cast<std::uint64_t>(lcr))
      .Int("inspected", inspected)
      .Int("crossing", crossing.size())
      .Int("fusion_prevented", prevented ? 1 : 0);
}

// Query cost: summaries (built once, queried often) vs. recomputing the
// pairwise dependences for every query.
void BM_FusionQueryViaSummaries(benchmark::State& state) {
  Program p = MakeAdjacentLoops(static_cast<int>(state.range(0)));
  AnalysisCache cache(p);
  const Stmt& l1 = *p.top()[0];
  const Stmt& l2 = *p.top()[1];
  cache.summaries();  // build once
  std::size_t inspected = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.summaries().Between(l1, l2, false, &inspected));
  }
  state.counters["inspected"] = static_cast<double>(inspected);
  state.SetLabel("body=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FusionQueryViaSummaries)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_FusionQueryFullScan(benchmark::State& state) {
  Program p = MakeAdjacentLoops(static_cast<int>(state.range(0)));
  AnalysisCache cache(p);
  const Stmt& l1 = *p.top()[0];
  const Stmt& l2 = *p.top()[1];
  for (auto _ : state) {
    // The no-summary baseline: recompute pairwise dependences of the two
    // loop bodies for every query.
    benchmark::DoNotOptimize(
        FusionPrevented(p, cache.loops(), l1, l2));
  }
  state.SetLabel("body=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FusionQueryFullScan)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

void BM_SummaryConstruction(benchmark::State& state) {
  Program p = MakeAdjacentLoops(static_cast<int>(state.range(0)));
  AnalysisCache cache(p);
  const Pdg& pdg = cache.pdg();
  for (auto _ : state) {
    DependenceSummaries summaries(pdg);
    benchmark::DoNotOptimize(summaries.TotalSummarized());
  }
  state.SetLabel("body=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SummaryConstruction)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  pivot::BenchJson json("fig3_regional");
  pivot::PrintFigure3(json);
  const std::string path = json.WriteFile();
  if (!path.empty()) std::cout << "wrote " << path << '\n';
  if (pivot::BenchSmokeMode()) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
