// Data-dependence summaries on region nodes (paper Figure 3).
//
// Every dependence is annotated on the *least common region* of its source
// and sink. A query about two sibling subtrees (e.g. "may these adjacent
// loops fuse?") then inspects only the dependences summarized on their
// common region instead of visiting every node pair under the loops — the
// paper's motivating example for event-driven regional analysis.
#ifndef PIVOT_ANALYSIS_SUMMARY_H_
#define PIVOT_ANALYSIS_SUMMARY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/analysis/pdg.h"

namespace pivot {

class DependenceSummaries {
 public:
  explicit DependenceSummaries(const Pdg& pdg);

  // Dependences whose LCR is `region`.
  const std::vector<const Dependence*>& AtRegion(int region) const;

  // Dependences summarized on the common region of the subtrees rooted at
  // the PDG nodes of `a` and `b` whose source lies under `a`'s subtree and
  // sink under `b`'s subtree (or vice versa when `either_direction`).
  // The inspected candidate count is reported through `inspected` for the
  // regional-analysis benchmarks.
  std::vector<const Dependence*> Between(const Stmt& a, const Stmt& b,
                                         bool either_direction,
                                         std::size_t* inspected = nullptr) const;

  std::size_t TotalSummarized() const { return total_; }

  // Canonical dump (regions ascending, dependences sorted within each):
  // equal summaries print identically, which is what the long-lived-vs-
  // fresh cache differential harness diffs.
  std::string ToString() const;

 private:
  const Pdg& pdg_;
  std::unordered_map<int, std::vector<const Dependence*>> by_region_;
  std::vector<const Dependence*> empty_;
  std::size_t total_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_ANALYSIS_SUMMARY_H_
