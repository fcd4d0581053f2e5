// Session: the library's top-level facade.
//
// A Session owns a program together with its analyses, action journal,
// transformation history, undo engine and editor — the programmatic
// equivalent of one PIVOT editing session. Typical use:
//
//   Session s(Parse(source));
//   OrderStamp t1 = *s.ApplyFirst(TransformKind::kCse);
//   OrderStamp t2 = *s.ApplyFirst(TransformKind::kInx);
//   s.Undo(t1);                     // independent order: t2 stays
//   std::cout << s.Source();
//
// Every mutating operation (Apply, Undo, UndoLast, RemoveUnsafeTransforms)
// is atomic: it runs inside a Transaction that rolls the program, journal,
// annotations and history back to their pre-operation state if the
// operation throws — whether from a transformation pre-condition failing
// mid-flight, a blocked undo, or an injected fault. In strict mode the
// session additionally validates cross-layer invariants before committing
// and rolls back (throwing ProgramError) when they do not hold.
#ifndef PIVOT_CORE_SESSION_H_
#define PIVOT_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>

#include "pivot/analysis/analyses.h"
#include "pivot/core/commit_hook.h"
#include "pivot/core/edits.h"
#include "pivot/core/transaction.h"
#include "pivot/core/undo_engine.h"
#include "pivot/core/validator.h"
#include "pivot/ir/interp.h"
#include "pivot/ir/printer.h"

namespace pivot {

struct SessionState;   // persist/snapshot.h
struct RecoverResult;  // persist/durable.h

struct SessionOptions {
  UndoOptions undo;
  // Run ValidateSession before committing each transaction; a rejected
  // result is rolled back and reported as a ProgramError.
  bool strict = false;
};

class Session {
 public:
  explicit Session(Program program, UndoOptions options = {})
      : Session(std::move(program),
                SessionOptions{std::move(options), false}) {}
  Session(Program program, SessionOptions options);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Program& program() { return program_; }
  AnalysisCache& analyses() { return analyses_; }
  Journal& journal() { return journal_; }
  History& history() { return history_; }
  UndoEngine& engine() { return engine_; }
  Editor& editor() { return editor_; }

  // --- applying transformations ---
  std::vector<Opportunity> FindOpportunities(TransformKind kind);

  // Applies at a specific site; throws ProgramError when the pre-condition
  // does not hold (leaving journal and history untouched, even when the
  // staleness only surfaces mid-application). Returns the new
  // transformation's stamp.
  OrderStamp Apply(const Opportunity& op);

  // Applies the first opportunity found, if any.
  std::optional<OrderStamp> ApplyFirst(TransformKind kind);

  // Applies opportunities of `kind` until none remain (bounded); returns
  // the number applied. Each application is its own transaction.
  int ApplyEverywhere(TransformKind kind, int max_applications = 1000);

  // --- undoing ---
  UndoStats Undo(OrderStamp stamp);
  // Batch undo: one transactional plan for the whole set (see
  // UndoEngine::UndoSet). `undone` (optional) receives every stamp the
  // plan removed — cascades included — in stamp order.
  UndoStats UndoSet(const std::vector<OrderStamp>& stamps,
                    std::vector<OrderStamp>* undone = nullptr);
  OrderStamp UndoLast();
  bool CanUndo(OrderStamp stamp, std::string* reason = nullptr) {
    return engine_.CanUndo(stamp, reason);
  }

  // --- edits ---
  std::vector<OrderStamp> RemoveUnsafeTransforms(
      std::vector<OrderStamp>* blocked = nullptr);

  // --- persistence ---
  // Installs a commit listener on this session and its editor: OnCommit
  // runs after validation but before the in-memory commit is acknowledged
  // (write-ahead; throwing rolls the operation back), OnCommitted after
  // (throwing propagates without rollback). One listener at a time; pass
  // nullptr to detach.
  void set_commit_listener(CommitListener* listener) {
    commit_listener_ = listener;
    editor_.set_commit_listener(listener);
  }
  CommitListener* commit_listener() const { return commit_listener_; }

  // Installs a decoded snapshot image into this freshly constructed,
  // never-mutated session (journal records with their payload trees,
  // annotations, edit stamps, history). Defined with the persist subsystem;
  // persist/snapshot.h holds SessionState.
  void RestorePersistedState(SessionState state);

  // Opens a durable journal, truncates any torn or corrupt tail, and
  // replays snapshot + tail into a fresh session. Defined in
  // persist/durable.cc; persist/durable.h holds RecoverResult and the
  // recovery report.
  static RecoverResult Recover(const std::string& path);

  // --- recovery & validation ---
  const SessionOptions& options() const { return options_; }
  const RecoveryReport& recovery() const { return recovery_; }

  // On-demand cross-layer invariant check (what strict mode runs before
  // every commit).
  ValidationReport Validate() const {
    return ValidateSession(program_, journal_, history_);
  }

  // --- inspection ---
  std::string Source(const PrintOptions& opts = {}) const;
  std::string HistoryToString() const;
  std::string AnnotationsToString() const;  // the APDG/ADAG annotations

  // Executes the current program (the safety oracle used by tests).
  InterpResult Execute(const std::vector<double>& input = {}) const;

 private:
  // Runs `fn` inside a Transaction: commit on success (after an optional
  // strict-mode validation and the commit listener's write-ahead hook),
  // exact rollback on any exception. `desc` describes the operation for
  // the listener; fn fills in the produced stamp where applicable.
  template <typename Fn>
  auto Transact(const char* operation, TxnDescriptor& desc, Fn&& fn);

  SessionOptions options_;
  Program program_;
  AnalysisCache analyses_;
  Journal journal_;
  History history_;
  UndoEngine engine_;
  Editor editor_;
  RecoveryReport recovery_;
  CommitListener* commit_listener_ = nullptr;
};

}  // namespace pivot

#endif  // PIVOT_CORE_SESSION_H_
