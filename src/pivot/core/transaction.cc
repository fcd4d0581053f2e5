#include "pivot/core/transaction.h"

#include <algorithm>
#include <sstream>

#include "pivot/analysis/analyses.h"
#include "pivot/support/diagnostics.h"

namespace pivot {

void RecoveryReport::NoteFaultPoint(const std::string& point) {
  if (std::find(fault_points_hit.begin(), fault_points_hit.end(), point) ==
      fault_points_hit.end()) {
    fault_points_hit.push_back(point);
  }
}

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "transactions: " << transactions << " (" << commits << " committed, "
     << rollbacks << " rolled back)\n";
  os << "faults absorbed: " << faults_absorbed << '\n';
  os << "validator: " << validator_runs << " runs, " << validator_failures
     << " failures\n";
  if (undo_depth_exhausted != 0) {
    os << "undo depth exhausted: " << undo_depth_exhausted << '\n';
  }
  if (!fault_points_hit.empty()) {
    os << "fault points hit:";
    for (const std::string& point : fault_points_hit) os << ' ' << point;
    os << '\n';
  }
  if (!last_rollback_reason.empty()) {
    os << "last rollback: " << last_rollback_reason << '\n';
  }
  return os.str();
}

Transaction::Transaction(Journal& journal, History& history,
                         AnalysisCache* analyses)
    : journal_(journal),
      history_(history),
      analyses_(analyses),
      history_mark_(history.size()),
      next_stamp_mark_(history.next_stamp()),
      out_of_order_mark_(history.out_of_order_mark()),
      next_stmt_mark_(journal.program().next_stmt_id()),
      next_expr_mark_(journal.program().next_expr_id()) {
  undone_mark_.reserve(history_mark_);
  for (const TransformRecord& rec : history_.records()) {
    undone_mark_.push_back(rec.undone);
  }
  journal_.set_observer(this);
}

Transaction::~Transaction() {
  if (active_) Rollback();
}

void Transaction::OnJournalEvent(const JournalEvent& event) {
  events_.push_back(event);
}

void Transaction::Commit() {
  PIVOT_CHECK_MSG(active_, "transaction already resolved");
  journal_.set_observer(nullptr);
  active_ = false;
  events_.clear();
}

void Transaction::Rollback() {
  PIVOT_CHECK_MSG(active_, "transaction already resolved");
  // Detach first: the reversal calls below are journal mutations
  // themselves and must not be re-observed.
  journal_.set_observer(nullptr);
  active_ = false;

  // Reverse replay: each step sees exactly the state that existed right
  // after the event it reverses.
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    switch (it->kind) {
      case JournalEvent::Kind::kAppend:
        journal_.RollbackAppend(*it);
        break;
      case JournalEvent::Kind::kInvert:
        journal_.RollbackInvert(*it);
        break;
    }
  }
  events_.clear();

  // History: restore the undone flags of records that predate the
  // transaction (an undo cascade flips them), then drop any added ones.
  std::size_t i = 0;
  for (TransformRecord& rec : history_.records()) {
    if (i >= history_mark_) break;
    rec.undone = undone_mark_[i];
    ++i;
  }
  history_.RewindTo(history_mark_, next_stamp_mark_, out_of_order_mark_);
  // The replay retired every node the operation created; hand their ids
  // out again, as replay of the journal (which never saw them) will.
  journal_.program().RewindIdCounters(next_stmt_mark_, next_expr_mark_);

  // The replay above mutated the program behind the analysis cache; drop
  // everything (Invalidate is fault-free by contract — recovery must not
  // fault) so no post-fault result outlives the rollback.
  if (analyses_ != nullptr) analyses_->Invalidate();
}

}  // namespace pivot
