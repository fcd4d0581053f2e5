#include "pivot/analysis/analyses.h"

#include "pivot/support/fault_injector.h"

namespace pivot {

void AnalysisCache::CountRebuild(Family family) {
  ++rebuilds_[static_cast<std::size_t>(family)];
  ++total_rebuilds_;
}

void AnalysisCache::Refresh() {
  if (valid_epoch_ == program_.epoch()) return;
  // A re-derivation window is about to start; transactional callers must
  // survive a failure here (the caches are already consistent — lazy
  // rebuild just restarts on the next query).
  PIVOT_FAULT_POINT("analysis.rebuild.pre");
  DropAll();
  valid_epoch_ = program_.epoch();
}

void AnalysisCache::DropAll() {
  // Dependents first (they hold references into their prerequisites).
  summaries_.reset();
  pdg_.reset();
  deps_.reset();
  loops_.reset();
  defuse_.reset();
  avail_.reset();
  liveness_.reset();
  reaching_.reset();
  facts_.reset();
  doms_.reset();
  cfg_.reset();
  flat_.reset();
  block_dags_.reset();
}

void AnalysisCache::Invalidate() {
  // No fault point here: rollback recovery calls Invalidate to discard
  // possibly half-built results, and recovery itself must not fault.
  DropAll();
  valid_epoch_.reset();
}

const FlatProgram& AnalysisCache::flat() {
  Refresh();
  if (!flat_) {
    flat_.emplace(Flatten(program_));
    CountRebuild(Family::kFlat);
  }
  return *flat_;
}

const Cfg& AnalysisCache::cfg() {
  Refresh();
  if (!cfg_) {
    cfg_.emplace(BuildCfg(program_));
    CountRebuild(Family::kCfg);
  }
  return *cfg_;
}

const Dominators& AnalysisCache::doms() {
  Refresh();
  if (!doms_) {
    doms_.emplace(cfg());
    CountRebuild(Family::kDoms);
  }
  return *doms_;
}

const ProgramFacts& AnalysisCache::facts() {
  Refresh();
  if (!facts_) {
    facts_.emplace(ComputeFacts(cfg()));
    CountRebuild(Family::kFacts);
  }
  return *facts_;
}

const ReachingDefs& AnalysisCache::reaching() {
  Refresh();
  if (!reaching_) {
    const Cfg& c = cfg();
    reaching_.emplace(c, facts());
    CountRebuild(Family::kReaching);
  }
  return *reaching_;
}

const Liveness& AnalysisCache::liveness() {
  Refresh();
  if (!liveness_) {
    const Cfg& c = cfg();
    liveness_.emplace(c, facts());
    CountRebuild(Family::kLiveness);
  }
  return *liveness_;
}

const AvailExprs& AnalysisCache::avail() {
  Refresh();
  if (!avail_) {
    const Cfg& c = cfg();
    avail_.emplace(c, facts());
    CountRebuild(Family::kAvail);
  }
  return *avail_;
}

const DefUseChains& AnalysisCache::defuse() {
  Refresh();
  if (!defuse_) {
    const Cfg& c = cfg();
    defuse_.emplace(c, facts(), reaching());
    CountRebuild(Family::kDefuse);
  }
  return *defuse_;
}

const LoopTree& AnalysisCache::loops() {
  Refresh();
  if (!loops_) {
    loops_.emplace(program_);
    CountRebuild(Family::kLoops);
  }
  return *loops_;
}

const std::vector<Dependence>& AnalysisCache::deps() {
  Refresh();
  if (!deps_) {
    deps_.emplace(ComputeDependences(program_, loops()));
    CountRebuild(Family::kDeps);
  }
  return *deps_;
}

const Pdg& AnalysisCache::pdg() {
  Refresh();
  if (!pdg_) {
    pdg_.emplace(program_, deps());
    CountRebuild(Family::kPdg);
  }
  return *pdg_;
}

const DependenceSummaries& AnalysisCache::summaries() {
  Refresh();
  if (!summaries_) {
    summaries_.emplace(pdg());
    CountRebuild(Family::kSummaries);
  }
  return *summaries_;
}

const BlockDags& AnalysisCache::block_dags() {
  Refresh();
  if (!block_dags_) {
    block_dags_.emplace(BuildBlockDags(program_));
    CountRebuild(Family::kBlockDags);
  }
  return *block_dags_;
}

}  // namespace pivot
