// AnalysisCache: epoch-validated facade over all analyses.
//
// Transformations and the undo engine query analyses through this cache;
// every Program mutation bumps the program epoch, and stale results are
// rebuilt lazily on next access. The rebuild counters feed the paper's
// event-driven-regional-undo benchmarks (how much re-analysis each undo
// strategy triggers).
//
// Invalidation (see DESIGN.md §8): any epoch move drops every family; each
// family is then re-derived from scratch on its next access, so a query
// rebuilds only the families it actually reads.
#ifndef PIVOT_ANALYSIS_ANALYSES_H_
#define PIVOT_ANALYSIS_ANALYSES_H_

#include <array>
#include <cstdint>
#include <optional>

#include "pivot/analysis/cfg.h"
#include "pivot/analysis/dag.h"
#include "pivot/analysis/dataflow.h"
#include "pivot/analysis/defuse.h"
#include "pivot/analysis/depend.h"
#include "pivot/analysis/dominators.h"
#include "pivot/analysis/flatten.h"
#include "pivot/analysis/loops.h"
#include "pivot/analysis/pdg.h"
#include "pivot/analysis/summary.h"

namespace pivot {

class AnalysisCache {
 public:
  // The thirteen analysis families the cache manages. Order = dependency
  // order (a family only depends on earlier ones).
  enum class Family {
    kFlat,
    kCfg,
    kDoms,
    kLoops,
    kFacts,
    kReaching,
    kLiveness,
    kAvail,
    kDefuse,
    kDeps,
    kPdg,
    kSummaries,
    kBlockDags,
  };
  static constexpr int kNumFamilies = 13;

  explicit AnalysisCache(Program& program) : program_(program) {}
  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;

  Program& program() { return program_; }

  const FlatProgram& flat();
  const Cfg& cfg();
  const Dominators& doms();
  const ProgramFacts& facts();
  const ReachingDefs& reaching();
  const Liveness& liveness();
  const AvailExprs& avail();
  const DefUseChains& defuse();
  const LoopTree& loops();
  const std::vector<Dependence>& deps();
  const Pdg& pdg();
  const DependenceSummaries& summaries();
  const BlockDags& block_dags();

  // Drops every cached result unconditionally and forgets the validated
  // epoch entirely, so the next access always re-derives — even when the
  // program epoch has not moved since. (The old implementation reset the
  // cached epoch to 0, a value a program epoch could alias, letting an
  // explicitly invalidated cache be judged up to date.)
  void Invalidate();

  // Number of from-scratch family re-derivations since construction — the
  // re-analysis cost metric used by the benchmarks.
  std::uint64_t rebuild_count() const { return total_rebuilds_; }
  std::uint64_t family_rebuilds(Family family) const {
    return rebuilds_[static_cast<std::size_t>(family)];
  }

 private:
  // Drops everything when the program epoch moved since the last
  // validation.
  void Refresh();
  void DropAll();
  void CountRebuild(Family family);

  Program& program_;

  // nullopt = nothing validated (fresh or explicitly invalidated): the
  // sentinel can never alias a real program epoch.
  std::optional<std::uint64_t> valid_epoch_;

  std::array<std::uint64_t, kNumFamilies> rebuilds_{};
  std::uint64_t total_rebuilds_ = 0;

  std::optional<FlatProgram> flat_;
  std::optional<Cfg> cfg_;
  std::optional<Dominators> doms_;
  std::optional<ProgramFacts> facts_;
  std::optional<ReachingDefs> reaching_;
  std::optional<Liveness> liveness_;
  std::optional<AvailExprs> avail_;
  std::optional<DefUseChains> defuse_;
  std::optional<LoopTree> loops_;
  std::optional<std::vector<Dependence>> deps_;
  std::optional<Pdg> pdg_;
  std::optional<DependenceSummaries> summaries_;
  std::optional<BlockDags> block_dags_;
};

}  // namespace pivot

#endif  // PIVOT_ANALYSIS_ANALYSES_H_
