// Transactional guard for session-level operations.
//
// Every Session operation that mutates state (Apply, Undo, UndoLast,
// RemoveUnsafeTransforms) runs inside one Transaction. The guard observes
// the journal's event stream while the operation runs; if the operation
// throws — an injected fault, a validator rejection, a transformation
// pre-condition failure discovered mid-flight — Rollback() replays the
// observed events in exact reverse order, restoring the program, journal,
// annotations and history to a state bit-identical to transaction start.
//
// The rollback is an *event log* replay, not a state snapshot: each
// reversal step operates on precisely the state that existed right after
// the event it reverses, so exact positional re-insertion (SlotPos) and
// record popping are always well-defined. Snapshotting the whole program
// would be simpler but O(|program|) per operation; the log is O(|work|).
#ifndef PIVOT_CORE_TRANSACTION_H_
#define PIVOT_CORE_TRANSACTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pivot/actions/journal.h"
#include "pivot/core/history.h"

namespace pivot {

class AnalysisCache;

// Cumulative record of a session's transactional activity: how often the
// guard fired, what it absorbed, and what the strict-mode validator said.
struct RecoveryReport {
  std::uint64_t transactions = 0;        // guards opened
  std::uint64_t commits = 0;             // completed normally
  std::uint64_t rollbacks = 0;           // reversed (fault or validator)
  std::uint64_t faults_absorbed = 0;     // rollbacks caused by an
                                         // injected fault specifically
  std::uint64_t validator_runs = 0;      // strict-mode validations
  std::uint64_t validator_failures = 0;  // ... that rejected the result
  std::uint64_t undo_depth_exhausted = 0;  // undo chains that hit
                                           // UndoOptions::max_depth
  std::vector<std::string> fault_points_hit;  // distinct points, in order
  std::string last_rollback_reason;

  void NoteFaultPoint(const std::string& point);
  std::string ToString() const;
};

// RAII guard: observes the journal from construction until Commit() or
// Rollback(). Destruction with the transaction still active rolls back
// (the exception path). Transactions do not nest — Session holds one at a
// time, and the journal enforces single observership.
class Transaction final : public Journal::Observer {
 public:
  // When `analyses` is given, Rollback() unconditionally invalidates it:
  // the reverse replay mutates the program underneath the cache, and a
  // rolled-back program must never be read against analysis results built
  // (possibly half-built, if the fault hit mid-rebuild) after the fault.
  Transaction(Journal& journal, History& history,
              AnalysisCache* analyses = nullptr);
  ~Transaction() override;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  // Detaches the observer and discards the log; state changes stand.
  void Commit();

  // Reverses every observed journal event (latest first), restores the
  // undone flags of pre-existing history records, and rewinds the history
  // to its transaction-start size, stamp counter and out-of-order mark and
  // the program to its transaction-start id counters.
  void Rollback();

  bool active() const { return active_; }
  std::size_t events_observed() const { return events_.size(); }

  void OnJournalEvent(const JournalEvent& event) override;

 private:
  Journal& journal_;
  History& history_;
  AnalysisCache* analyses_ = nullptr;
  std::vector<JournalEvent> events_;
  std::size_t history_mark_;
  OrderStamp next_stamp_mark_;
  OrderStamp out_of_order_mark_;
  std::uint32_t next_stmt_mark_;
  std::uint32_t next_expr_mark_;
  std::vector<bool> undone_mark_;  // flags of records existing at start
  bool active_ = true;
};

}  // namespace pivot

#endif  // PIVOT_CORE_TRANSACTION_H_
