#include "pivot/core/session.h"

#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"
#include "pivot/transform/catalog.h"

namespace pivot {

const char* TxnOpName(TxnOp op) {
  switch (op) {
    case TxnOp::kApply: return "apply";
    case TxnOp::kUndo: return "undo";
    case TxnOp::kUndoSet: return "undo-set";
    case TxnOp::kUndoLast: return "undo-last";
    case TxnOp::kRemoveUnsafe: return "remove-unsafe";
    case TxnOp::kEditAdd: return "edit-add";
    case TxnOp::kEditDelete: return "edit-delete";
    case TxnOp::kEditMove: return "edit-move";
    case TxnOp::kEditReplaceExpr: return "edit-replace-expr";
  }
  return "?";
}

Session::Session(Program program, SessionOptions options)
    : options_(std::move(options)),
      program_(std::move(program)),
      analyses_(program_),
      journal_(program_),
      engine_(analyses_, journal_, history_, options_.undo),
      editor_(analyses_, journal_, history_) {
  engine_.set_recovery(&recovery_);
}

template <typename Fn>
auto Session::Transact(const char* operation, TxnDescriptor& desc, Fn&& fn) {
  ++recovery_.transactions;
  Transaction txn(journal_, history_, &analyses_);
  try {
    auto result = fn();
    if (options_.strict) {
      ++recovery_.validator_runs;
      const ValidationReport report =
          ValidateSession(program_, journal_, history_);
      if (!report.ok()) {
        ++recovery_.validator_failures;
        ++recovery_.rollbacks;
        recovery_.last_rollback_reason =
            std::string(operation) +
            ": validator rejected the result: " + report.violations.front();
        txn.Rollback();
        throw ProgramError(recovery_.last_rollback_reason);
      }
    }
    // Write-ahead: the operation must be durable before it is acknowledged.
    // A throw here lands in the catch clauses with the transaction still
    // active and rolls everything back — memory never runs ahead of disk.
    if (commit_listener_ != nullptr) commit_listener_->OnCommit(desc);
    txn.Commit();
    ++recovery_.commits;
    // Post-ack policy work (snapshots). The transaction is inactive, so a
    // throw from here propagates without rolling back: the operation is
    // already durable and committed on both sides.
    if (commit_listener_ != nullptr) commit_listener_->OnCommitted(desc);
    return result;
  } catch (const FaultInjectedError& e) {
    if (txn.active()) {
      ++recovery_.rollbacks;
      ++recovery_.faults_absorbed;
      recovery_.NoteFaultPoint(e.point());
      recovery_.last_rollback_reason =
          std::string(operation) + ": " + e.what();
      txn.Rollback();
    }
    throw;
  } catch (const std::exception& e) {
    if (txn.active()) {
      ++recovery_.rollbacks;
      recovery_.last_rollback_reason =
          std::string(operation) + ": " + e.what();
      txn.Rollback();
    }
    throw;
  }
}

std::vector<Opportunity> Session::FindOpportunities(TransformKind kind) {
  return GetTransformation(kind).Find(analyses_);
}

OrderStamp Session::Apply(const Opportunity& op) {
  TxnDescriptor desc;
  desc.op = TxnOp::kApply;
  desc.apply_site = op;
  return Transact("apply", desc, [&] {
    const Transformation& t = GetTransformation(op.kind);
    if (!t.Applicable(analyses_, op)) {
      throw ProgramError(std::string(t.name()) +
                         " pre-condition does not hold at " +
                         op.Describe(program_));
    }
    TransformRecord rec;
    rec.stamp = history_.NextStamp();
    rec.kind = op.kind;
    rec.site = op;
    t.Apply(analyses_, journal_, op, rec);
    history_.Add(std::move(rec));
    desc.result_stamp = history_.records().back().stamp;
    return desc.result_stamp;
  });
}

std::optional<OrderStamp> Session::ApplyFirst(TransformKind kind) {
  const std::vector<Opportunity> ops = FindOpportunities(kind);
  if (ops.empty()) return std::nullopt;
  return Apply(ops.front());
}

int Session::ApplyEverywhere(TransformKind kind, int max_applications) {
  int applied = 0;
  while (applied < max_applications) {
    const std::vector<Opportunity> ops = FindOpportunities(kind);
    if (ops.empty()) break;
    int applied_this_round = 0;
    for (const Opportunity& op : ops) {
      if (applied >= max_applications) break;
      try {
        Apply(op);
        ++applied;
        ++applied_this_round;
      } catch (const FaultInjectedError&) {
        throw;  // injected faults must surface to the harness, not be eaten
      } catch (const ProgramError&) {
        // An earlier application this round can invalidate a later site
        // (fusing L1+L2 detaches L2, killing a pending (L2, L3) fusion).
        // Apply's transaction already rolled the failed attempt back; skip
        // the stale site and keep going instead of abandoning the batch.
      }
    }
    // Only re-run Find when this round changed the program; a round where
    // every site went stale without progress would otherwise loop forever.
    if (applied_this_round == 0) break;
  }
  return applied;
}

UndoStats Session::Undo(OrderStamp stamp) {
  TxnDescriptor desc;
  desc.op = TxnOp::kUndo;
  desc.undo_stamps.push_back(stamp);
  return Transact("undo", desc, [&] { return engine_.Undo(stamp); });
}

UndoStats Session::UndoSet(const std::vector<OrderStamp>& stamps,
                           std::vector<OrderStamp>* undone) {
  TxnDescriptor desc;
  desc.op = TxnOp::kUndoSet;
  desc.undo_stamps = stamps;
  return Transact("undo-set", desc,
                  [&] { return engine_.UndoSet(stamps, undone); });
}

OrderStamp Session::UndoLast() {
  TxnDescriptor desc;
  desc.op = TxnOp::kUndoLast;
  return Transact("undo-last", desc, [&] {
    desc.result_stamp = engine_.UndoLast();
    return desc.result_stamp;
  });
}

std::vector<OrderStamp> Session::RemoveUnsafeTransforms(
    std::vector<OrderStamp>* blocked) {
  TxnDescriptor desc;
  desc.op = TxnOp::kRemoveUnsafe;
  return Transact("remove-unsafe", desc, [&] {
    return pivot::RemoveUnsafeTransforms(engine_, analyses_, journal_,
                                         history_, nullptr, blocked);
  });
}

std::string Session::Source(const PrintOptions& opts) const {
  return ToSource(program_, opts);
}

std::string Session::HistoryToString() const {
  return history_.ToString(program_);
}

std::string Session::AnnotationsToString() const {
  return journal_.annotations().Render(program_);
}

InterpResult Session::Execute(const std::vector<double>& input) const {
  InterpOptions opts;
  opts.input = input;
  return Run(program_, opts);
}

}  // namespace pivot
