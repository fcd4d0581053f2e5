#include "pivot/ir/program.h"

#include <algorithm>

#include "pivot/support/diagnostics.h"

namespace pivot {

void Program::AddMutationListener(MutationListener* listener) {
  PIVOT_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void Program::RemoveMutationListener(MutationListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void Program::RestoreIdCounters(std::uint32_t next_stmt,
                                std::uint32_t next_expr) {
  PIVOT_CHECK_MSG(next_stmt >= next_stmt_id_ && next_expr >= next_expr_id_,
                  "id counters only move forward (restore would re-issue "
                  "live ids)");
  next_stmt_id_ = next_stmt;
  next_expr_id_ = next_expr;
}

void Program::RewindIdCounters(std::uint32_t next_stmt,
                               std::uint32_t next_expr) {
  PIVOT_CHECK_MSG(next_stmt <= next_stmt_id_ && next_expr <= next_expr_id_,
                  "id counters only rewind backwards");
  for (const auto& [id, stmt] : stmts_) {
    PIVOT_CHECK_MSG(id.value() < next_stmt,
                    "rewind would re-issue live StmtId " << id.value());
  }
  for (const auto& [id, expr] : exprs_) {
    PIVOT_CHECK_MSG(id.value() < next_expr,
                    "rewind would re-issue live ExprId " << id.value());
  }
  next_stmt_id_ = next_stmt;
  next_expr_id_ = next_expr;
}

void Program::Mutated(StmtId stmt, bool structural) {
  ++epoch_;
  for (MutationListener* listener : listeners_) {
    listener->OnProgramMutation(stmt, structural);
  }
}

std::vector<StmtPtr>& Program::BodyListOf(Stmt* parent, BodyKind body) {
  if (parent == nullptr) {
    PIVOT_CHECK_MSG(body == BodyKind::kMain, "top level has only a main body");
    return top_;
  }
  switch (parent->kind) {
    case StmtKind::kDo:
      PIVOT_CHECK_MSG(body == BodyKind::kMain, "do loops have only one body");
      return parent->body;
    case StmtKind::kIf:
      return body == BodyKind::kMain ? parent->body : parent->else_body;
    default:
      PIVOT_UNREACHABLE("statement kind has no body");
  }
}

void Program::RegisterTree(Stmt& root) {
  ForEachStmt(root, [this](Stmt& s) {
    if (!s.id.valid()) {
      s.id = StmtId(next_stmt_id_++);
    }
    stmts_[s.id] = &s;
    ForEachOwnExpr(s, [this](Expr& e) {
      if (!e.id.valid()) {
        e.id = ExprId(next_expr_id_++);
      }
      exprs_[e.id] = &e;
    });
  });
}

void Program::RegisterExprTree(Expr& root) {
  ForEachExpr(root, [this](Expr& e) {
    if (!e.id.valid()) {
      e.id = ExprId(next_expr_id_++);
    }
    exprs_[e.id] = &e;
  });
}

void Program::UnregisterTree(Stmt& root) {
  ForEachStmt(root, [this](Stmt& s) {
    stmts_.erase(s.id);
    ForEachOwnExpr(s, [this](Expr& e) { exprs_.erase(e.id); });
  });
}

void Program::UnregisterExprTree(Expr& root) {
  ForEachExpr(root, [this](Expr& e) { exprs_.erase(e.id); });
}

Stmt* Program::FindStmt(StmtId id) const {
  auto it = stmts_.find(id);
  return it == stmts_.end() ? nullptr : it->second;
}

Expr* Program::FindExpr(ExprId id) const {
  auto it = exprs_.find(id);
  return it == exprs_.end() ? nullptr : it->second;
}

Stmt& Program::GetStmt(StmtId id) const {
  Stmt* s = FindStmt(id);
  PIVOT_CHECK_MSG(s != nullptr, "unknown StmtId " << id.value());
  return *s;
}

Expr& Program::GetExpr(ExprId id) const {
  Expr* e = FindExpr(id);
  PIVOT_CHECK_MSG(e != nullptr, "unknown ExprId " << id.value());
  return *e;
}

Stmt* Program::FindByLabel(int label) const {
  Stmt* found = nullptr;
  const_cast<Program*>(this)->ForEachAttached([&](Stmt& s) {
    if (found == nullptr && s.label == label) found = &s;
  });
  return found;
}

Stmt* Program::Append(StmtPtr stmt) {
  return InsertAt(nullptr, BodyKind::kMain, top_.size(), std::move(stmt));
}

Stmt* Program::InsertAt(Stmt* parent, BodyKind body, std::size_t index,
                        StmtPtr stmt) {
  PIVOT_CHECK(stmt != nullptr);
  PIVOT_CHECK_MSG(!stmt->attached, "statement is already attached");
  if (parent != nullptr) {
    PIVOT_CHECK_MSG(parent->attached, "parent must be attached");
    PIVOT_CHECK_MSG(!IsAncestorOf(*stmt, *parent),
                    "cannot insert a statement under itself");
  }
  RegisterTree(*stmt);
  std::vector<StmtPtr>& list = BodyListOf(parent, body);
  index = std::min(index, list.size());
  Stmt* raw = stmt.get();
  raw->parent = parent;
  raw->parent_body = body;
  list.insert(list.begin() + static_cast<std::ptrdiff_t>(index),
              std::move(stmt));
  SetAttachedRecursive(*raw, true);
  Mutated(raw->id, /*structural=*/true);
  return raw;
}

StmtPtr Program::Detach(Stmt& stmt) {
  PIVOT_CHECK_MSG(stmt.attached, "statement is not attached");
  std::vector<StmtPtr>& list = BodyListOf(stmt.parent, stmt.parent_body);
  auto it = std::find_if(list.begin(), list.end(),
                         [&stmt](const StmtPtr& p) { return p.get() == &stmt; });
  PIVOT_CHECK_MSG(it != list.end(), "statement not found in its parent body");
  StmtPtr owned = std::move(*it);
  list.erase(it);
  owned->parent = nullptr;
  owned->parent_body = BodyKind::kMain;
  SetAttachedRecursive(*owned, false);
  Mutated(owned->id, /*structural=*/true);
  return owned;
}

ExprPtr Program::ReplaceExpr(Expr& site, ExprPtr replacement) {
  PIVOT_CHECK(replacement != nullptr);
  RegisterExprTree(*replacement);

  Stmt* owner = site.owner;
  ExprPtr old;
  if (site.parent != nullptr) {
    // Replace a kid of the parent expression.
    Expr* parent = site.parent;
    auto it = std::find_if(
        parent->kids.begin(), parent->kids.end(),
        [&site](const ExprPtr& p) { return p.get() == &site; });
    PIVOT_CHECK_MSG(it != parent->kids.end(), "expression not in its parent");
    old = std::move(*it);
    replacement->parent = parent;
    replacement->slot = ExprSlot::kNone;
    *it = std::move(replacement);
    if (owner != nullptr) {
      ForEachExpr(*it->get(), [owner](Expr& e) { e.owner = owner; });
    }
  } else {
    // Replace a whole statement slot.
    PIVOT_CHECK_MSG(owner != nullptr, "detached root expression has no slot");
    ExprPtr* slot_owner = owner->SlotOwner(site.slot);
    PIVOT_CHECK(slot_owner != nullptr && slot_owner->get() == &site);
    old = std::move(*slot_owner);
    replacement->parent = nullptr;
    replacement->slot = old->slot;
    *slot_owner = std::move(replacement);
    ForEachExpr(*slot_owner->get(), [owner](Expr& e) { e.owner = owner; });
  }

  old->parent = nullptr;
  old->slot = ExprSlot::kNone;
  ForEachExpr(*old, [](Expr& e) { e.owner = nullptr; });
  // A pure expression swap under an existing statement: structure (and
  // hence the CFG shape) is untouched. A replacement on a detached
  // expression tree (owner == null) leaves the attached program unchanged
  // entirely; the invalid id tells listeners "no attached node dirtied".
  Mutated(owner != nullptr ? owner->id : StmtId(), /*structural=*/false);
  return old;
}

ExprPtr Program::ReplaceSlotExpr(Stmt& stmt, ExprSlot slot,
                                 ExprPtr replacement) {
  ExprPtr* slot_owner = stmt.SlotOwner(slot);
  PIVOT_CHECK(slot_owner != nullptr);
  ExprPtr old = std::move(*slot_owner);
  if (old != nullptr) {
    old->parent = nullptr;
    old->slot = ExprSlot::kNone;
    ForEachExpr(*old, [](Expr& e) { e.owner = nullptr; });
  }
  if (replacement != nullptr) {
    RegisterExprTree(*replacement);
    replacement->parent = nullptr;
    replacement->slot = slot;
    ForEachExpr(*replacement, [&stmt](Expr& e) { e.owner = &stmt; });
  }
  *slot_owner = std::move(replacement);
  Mutated(stmt.id, /*structural=*/false);
  return old;
}

void Program::SetLoopVar(Stmt& loop, std::string var) {
  PIVOT_CHECK(loop.kind == StmtKind::kDo);
  PIVOT_CHECK(!var.empty());
  loop.loop_var = std::move(var);
  // Renaming a loop's control variable redefines what the whole subtree
  // means to the loop/dependence analyses: treat as structural.
  Mutated(loop.id, /*structural=*/true);
}

std::size_t Program::IndexOf(const Stmt& stmt) const {
  const std::vector<StmtPtr>& list =
      const_cast<Program*>(this)->BodyListOf(stmt.parent, stmt.parent_body);
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (list[i].get() == &stmt) return i;
  }
  PIVOT_UNREACHABLE("statement not found in its parent body");
}

std::size_t Program::AttachedStmtCount() const {
  std::size_t count = 0;
  ForEachAttached([&count](const Stmt&) { ++count; });
  return count;
}

void Program::ForEachAttached(const std::function<void(Stmt&)>& fn) {
  for (auto& s : top_) ForEachStmt(*s, fn);
}

void Program::ForEachAttached(
    const std::function<void(const Stmt&)>& fn) const {
  for (const auto& s : top_) {
    ForEachStmt(static_cast<const Stmt&>(*s), fn);
  }
}

Program Program::Clone() const {
  Program clone;
  for (const auto& s : top_) {
    clone.Append(CloneStmt(*s));
  }
  return clone;
}

bool Program::Equals(const Program& a, const Program& b) {
  if (a.top_.size() != b.top_.size()) return false;
  for (std::size_t i = 0; i < a.top_.size(); ++i) {
    if (!StmtEquals(*a.top_[i], *b.top_[i])) return false;
  }
  return true;
}

void Program::SetAttachedRecursive(Stmt& root, bool attached) {
  ForEachStmt(root, [attached](Stmt& s) { s.attached = attached; });
}

}  // namespace pivot
