// Program: the owning container for a Pf statement tree plus the id
// registry and mutation API.
//
// All structural mutation (inserting, detaching, replacing expressions)
// must go through Program so that
//   * stable ids are assigned exactly once and survive detachment —
//     the undo journal refers to statements/expressions by id, including
//     deleted ones awaiting possible resurrection;
//   * backlinks (parent/owner/slot) are kept consistent;
//   * the program epoch is bumped, invalidating cached analyses.
#ifndef PIVOT_IR_PROGRAM_H_
#define PIVOT_IR_PROGRAM_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/ir/stmt.h"
#include "pivot/support/ids.h"

namespace pivot {

class Program {
 public:
  // Receives every epoch-bumping mutation as it happens, with the touched
  // statement (when one is known) and whether the change was *structural*
  // (statements inserted, detached, moved, or a loop header rewritten) or a
  // pure expression replacement under an existing statement. The undo
  // engine's RegionIndex keys its dirty sets on this stream; since every
  // mutation path funnels through Program, the stream is complete — there
  // is no way to change the tree without listeners hearing about it.
  class MutationListener {
   public:
    virtual ~MutationListener() = default;
    virtual void OnProgramMutation(StmtId stmt, bool structural) = 0;
  };

  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  // Listeners are not owned; register/unregister freely (several may
  // observe one program).
  void AddMutationListener(MutationListener* listener);
  void RemoveMutationListener(MutationListener* listener);

  // --- Structure ---
  std::vector<StmtPtr>& top() { return top_; }
  const std::vector<StmtPtr>& top() const { return top_; }

  // The body list a child of (`parent`, `body`) lives in; `parent == null`
  // addresses the top level.
  std::vector<StmtPtr>& BodyListOf(Stmt* parent, BodyKind body);

  // --- Registration ---
  // Assigns fresh ids to every unregistered node in the subtree (statements
  // and their expressions) and records them in the registry. Safe to call
  // on partially registered trees.
  void RegisterTree(Stmt& root);
  void RegisterExprTree(Expr& root);

  // Removes the subtree's ids from the registry (ids are never reused, so
  // the ids simply become unknown). Only transaction rollback uses this,
  // to retire nodes created by a rolled-back action before destroying
  // them — leaving them registered would dangle the registry.
  void UnregisterTree(Stmt& root);
  void UnregisterExprTree(Expr& root);

  // --- Lookup ---
  // Null if the id was never registered. Detached (deleted but journaled)
  // nodes are still found; check Stmt::attached / Expr::owner.
  Stmt* FindStmt(StmtId id) const;
  Expr* FindExpr(ExprId id) const;
  Stmt& GetStmt(StmtId id) const;  // PIVOT_CHECKs existence
  Expr& GetExpr(ExprId id) const;

  // First attached statement carrying source label `label`, or null.
  Stmt* FindByLabel(int label) const;

  // --- Mutation ---
  // Appends at top level; registers the subtree. Returns the raw pointer.
  Stmt* Append(StmtPtr stmt);

  // Inserts into (`parent`,`body`) at `index` (clamped to the list size);
  // registers the subtree.
  Stmt* InsertAt(Stmt* parent, BodyKind body, std::size_t index,
                 StmtPtr stmt);

  // Removes `stmt` from its parent body and returns ownership. The subtree
  // stays registered (ids remain valid); `attached` is cleared recursively.
  // The caller must keep the tree alive (or UnregisterTree it) — dropping
  // the pointer leaves the registry dangling, hence [[nodiscard]].
  [[nodiscard]] StmtPtr Detach(Stmt& stmt);

  // Replaces the expression subtree rooted at `site` with `replacement`
  // (registered on the way in) and returns the old subtree, which stays
  // registered but loses its owner/backlinks. `site` may live on an
  // attached or a detached statement. As with Detach, the returned tree
  // must be kept alive or unregistered.
  [[nodiscard]] ExprPtr ReplaceExpr(Expr& site, ExprPtr replacement);

  // Replaces a whole statement slot (the old expression and/or the
  // replacement may be null, e.g. a do-loop's optional step). Returns the
  // old subtree, detached but still registered.
  ExprPtr ReplaceSlotExpr(Stmt& stmt, ExprSlot slot, ExprPtr replacement);

  // Renames a do-loop's control variable (used by the loop-header Modify
  // primitive).
  void SetLoopVar(Stmt& loop, std::string var);

  // Index of `stmt` within its parent body list.
  std::size_t IndexOf(const Stmt& stmt) const;

  // --- Queries ---
  std::size_t AttachedStmtCount() const;

  // Pre-order walk over every attached statement.
  void ForEachAttached(const std::function<void(Stmt&)>& fn);
  void ForEachAttached(const std::function<void(const Stmt&)>& fn) const;

  // Deep structural clone with fresh ids (annotations and journal state are
  // not part of Program and are not cloned). Used for snapshots in tests.
  Program Clone() const;

  // Structural equality of the attached trees of two programs.
  static bool Equals(const Program& a, const Program& b);

  // --- Id counters ---
  // Next ids the program would assign; persisted by snapshots so a restored
  // program keeps assigning the same ids a never-crashed session would.
  std::uint32_t next_stmt_id() const { return next_stmt_id_; }
  std::uint32_t next_expr_id() const { return next_expr_id_; }
  // Restores persisted counters. Counters only ever move forward: restoring
  // below the current high-water mark (which would re-issue live ids) aborts.
  void RestoreIdCounters(std::uint32_t next_stmt, std::uint32_t next_expr);
  // Moves the counters back to values they held earlier. Only transaction
  // rollback uses this, after retiring every node the rolled-back
  // operation created, so the session goes on allocating the ids replay
  // will; a registered node at or above the rewound counters aborts.
  void RewindIdCounters(std::uint32_t next_stmt, std::uint32_t next_expr);

  // --- Epoch ---
  // Monotonically increasing mutation counter; analyses cache against it.
  std::uint64_t epoch() const { return epoch_; }
  // External bump with no statement attribution: conservatively reported to
  // listeners as a structural change.
  void BumpEpoch() { Mutated(StmtId(), /*structural=*/true); }

 private:
  void SetAttachedRecursive(Stmt& root, bool attached);
  // Bumps the epoch and reports the mutation to every listener.
  void Mutated(StmtId stmt, bool structural);

  std::vector<StmtPtr> top_;
  std::unordered_map<StmtId, Stmt*> stmts_;
  std::unordered_map<ExprId, Expr*> exprs_;
  std::vector<MutationListener*> listeners_;
  std::uint32_t next_stmt_id_ = 1;
  std::uint32_t next_expr_id_ = 1;
  std::uint64_t epoch_ = 1;
};

}  // namespace pivot

#endif  // PIVOT_IR_PROGRAM_H_
