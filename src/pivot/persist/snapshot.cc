#include "pivot/persist/snapshot.h"

#include <map>

#include "pivot/core/session.h"
#include "pivot/persist/token.h"
#include "pivot/support/diagnostics.h"

namespace pivot {
namespace {

using persist_internal::Malformed;
using persist_internal::TokenReader;
using persist_internal::TokenWriter;

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

void EncodeExpr(TokenWriter& w, const Expr* e) {
  if (e == nullptr) {
    w.Tok("nil");
    return;
  }
  w.Tok("(");
  w.Id32(e->id);
  switch (e->kind) {
    case ExprKind::kIntConst:
      w.Tok("int");
      w.Int(e->ival);
      break;
    case ExprKind::kRealConst:
      w.Tok("real");
      w.Real(e->rval);
      break;
    case ExprKind::kVarRef:
      w.Tok("var");
      w.Str(e->name);
      break;
    case ExprKind::kArrayRef:
      w.Tok("aref");
      w.Str(e->name);
      w.Int(static_cast<long long>(e->kids.size()));
      for (const ExprPtr& kid : e->kids) EncodeExpr(w, kid.get());
      break;
    case ExprKind::kBinary:
      w.Tok("bin");
      w.Int(static_cast<int>(e->bin));
      EncodeExpr(w, e->kids[0].get());
      EncodeExpr(w, e->kids[1].get());
      break;
    case ExprKind::kUnary:
      w.Tok("un");
      w.Int(static_cast<int>(e->un));
      EncodeExpr(w, e->kids[0].get());
      break;
  }
  w.Tok(")");
}

ExprPtr DecodeExpr(TokenReader& r);

ExprPtr DecodeExprBody(TokenReader& r) {
  const ExprId id(r.U32());
  const std::string tag = r.Next();
  ExprPtr e;
  if (tag == "int") {
    e = MakeIntConst(static_cast<long>(r.Int()));
  } else if (tag == "real") {
    e = MakeRealConst(r.Real());
  } else if (tag == "var") {
    e = MakeVarRef(r.Str());
  } else if (tag == "aref") {
    std::string name = r.Str();
    const std::size_t n = r.Count(1u << 20);
    std::vector<ExprPtr> subs;
    subs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ExprPtr sub = DecodeExpr(r);
      if (sub == nullptr) Malformed("nil array subscript");
      subs.push_back(std::move(sub));
    }
    e = MakeArrayRef(std::move(name), std::move(subs));
  } else if (tag == "bin") {
    const long long op = r.Int();
    if (op < 0 || op > static_cast<int>(BinOp::kOr)) {
      Malformed("bad binary operator");
    }
    ExprPtr l = DecodeExpr(r);
    ExprPtr rr = DecodeExpr(r);
    if (l == nullptr || rr == nullptr) Malformed("nil binary operand");
    e = MakeBinary(static_cast<BinOp>(op), std::move(l), std::move(rr));
  } else if (tag == "un") {
    const long long op = r.Int();
    if (op < 0 || op > static_cast<int>(UnOp::kNot)) {
      Malformed("bad unary operator");
    }
    ExprPtr k = DecodeExpr(r);
    if (k == nullptr) Malformed("nil unary operand");
    e = MakeUnary(static_cast<UnOp>(op), std::move(k));
  } else {
    Malformed("unknown expression tag '" + tag + "'");
  }
  e->id = id;
  r.Expect(")");
  return e;
}

ExprPtr DecodeExpr(TokenReader& r) {
  const std::string tok = r.Next();
  if (tok == "nil") return nullptr;
  if (tok != "(") Malformed("expected expression, got '" + tok + "'");
  return DecodeExprBody(r);
}

// ---------------------------------------------------------------------------
// Statements.
// ---------------------------------------------------------------------------

void EncodeStmt(TokenWriter& w, const Stmt& s) {
  w.Tok("(");
  w.Id32(s.id);
  w.Int(s.label);
  switch (s.kind) {
    case StmtKind::kAssign:
      w.Tok("assign");
      EncodeExpr(w, s.lhs.get());
      EncodeExpr(w, s.rhs.get());
      break;
    case StmtKind::kDo:
      w.Tok("do");
      w.Str(s.loop_var);
      EncodeExpr(w, s.lo.get());
      EncodeExpr(w, s.hi.get());
      EncodeExpr(w, s.step.get());
      w.Int(static_cast<long long>(s.body.size()));
      for (const StmtPtr& kid : s.body) EncodeStmt(w, *kid);
      break;
    case StmtKind::kIf:
      w.Tok("if");
      EncodeExpr(w, s.cond.get());
      w.Int(static_cast<long long>(s.body.size()));
      for (const StmtPtr& kid : s.body) EncodeStmt(w, *kid);
      w.Int(static_cast<long long>(s.else_body.size()));
      for (const StmtPtr& kid : s.else_body) EncodeStmt(w, *kid);
      break;
    case StmtKind::kRead:
      w.Tok("read");
      EncodeExpr(w, s.lhs.get());
      break;
    case StmtKind::kWrite:
      w.Tok("write");
      EncodeExpr(w, s.rhs.get());
      break;
  }
  w.Tok(")");
}

StmtPtr DecodeStmt(TokenReader& r);

void DecodeChildren(TokenReader& r, Stmt& parent, BodyKind body,
                    std::size_t n) {
  std::vector<StmtPtr>& list =
      body == BodyKind::kMain ? parent.body : parent.else_body;
  for (std::size_t i = 0; i < n; ++i) {
    StmtPtr child = DecodeStmt(r);
    child->parent = &parent;
    child->parent_body = body;
    list.push_back(std::move(child));
  }
}

// The opening paren has already been consumed.
StmtPtr DecodeStmtBody(TokenReader& r) {
  const StmtId id(r.U32());
  const int label = static_cast<int>(r.Int());
  const std::string tag = r.Next();
  StmtPtr s;
  if (tag == "assign") {
    ExprPtr lhs = DecodeExpr(r);
    ExprPtr rhs = DecodeExpr(r);
    if (lhs == nullptr || rhs == nullptr) Malformed("nil assign operand");
    s = MakeAssign(std::move(lhs), std::move(rhs));
  } else if (tag == "do") {
    std::string var = r.Str();
    ExprPtr lo = DecodeExpr(r);
    ExprPtr hi = DecodeExpr(r);
    ExprPtr step = DecodeExpr(r);  // may be nil
    if (lo == nullptr || hi == nullptr) Malformed("nil loop bound");
    s = MakeDo(std::move(var), std::move(lo), std::move(hi), std::move(step));
    DecodeChildren(r, *s, BodyKind::kMain, r.Count(1u << 24));
  } else if (tag == "if") {
    ExprPtr cond = DecodeExpr(r);
    if (cond == nullptr) Malformed("nil if condition");
    s = MakeIf(std::move(cond));
    DecodeChildren(r, *s, BodyKind::kMain, r.Count(1u << 24));
    DecodeChildren(r, *s, BodyKind::kElse, r.Count(1u << 24));
  } else if (tag == "read") {
    ExprPtr lhs = DecodeExpr(r);
    if (lhs == nullptr) Malformed("nil read target");
    s = MakeRead(std::move(lhs));
  } else if (tag == "write") {
    ExprPtr rhs = DecodeExpr(r);
    if (rhs == nullptr) Malformed("nil write value");
    s = MakeWrite(std::move(rhs));
  } else {
    Malformed("unknown statement tag '" + tag + "'");
  }
  s->id = id;
  s->label = label;
  r.Expect(")");
  return s;
}

StmtPtr DecodeStmt(TokenReader& r) {
  r.Expect("(");
  return DecodeStmtBody(r);
}

StmtPtr DecodeStmtOrNil(TokenReader& r) {
  const std::string tok = r.Next();
  if (tok == "nil") return nullptr;
  if (tok != "(") Malformed("expected statement or nil, got '" + tok + "'");
  return DecodeStmtBody(r);
}

// ---------------------------------------------------------------------------
// Locations, action records, annotations, history.
// ---------------------------------------------------------------------------

void EncodeLocation(TokenWriter& w, const Location& loc) {
  w.Tok("(");
  w.Id32(loc.parent);
  w.Int(static_cast<int>(loc.body));
  w.Int(loc.index);
  w.Id32(loc.before);
  w.Id32(loc.after);
  w.Int(static_cast<long long>(loc.preceding.size()));
  for (StmtId id : loc.preceding) w.Id32(id);
  w.Int(static_cast<long long>(loc.following.size()));
  for (StmtId id : loc.following) w.Id32(id);
  w.Tok(")");
}

Location DecodeLocation(TokenReader& r) {
  r.Expect("(");
  Location loc;
  loc.parent = StmtId(r.U32());
  const long long body = r.Int();
  if (body < 0 || body > static_cast<int>(BodyKind::kElse)) {
    Malformed("bad body kind");
  }
  loc.body = static_cast<BodyKind>(body);
  loc.index = static_cast<int>(r.Int());
  loc.before = StmtId(r.U32());
  loc.after = StmtId(r.U32());
  const std::size_t np = r.Count(1u << 24);
  for (std::size_t i = 0; i < np; ++i) loc.preceding.push_back(StmtId(r.U32()));
  const std::size_t nf = r.Count(1u << 24);
  for (std::size_t i = 0; i < nf; ++i) loc.following.push_back(StmtId(r.U32()));
  r.Expect(")");
  return loc;
}

void EncodeAction(TokenWriter& w, const ActionRecord& rec) {
  w.Tok("(");
  w.Int(static_cast<int>(rec.kind));
  w.U32(rec.stamp);
  w.Int(rec.undone ? 1 : 0);
  w.Id32(rec.stmt);
  w.Id32(rec.copy);
  w.Id32(rec.new_expr);
  w.Id32(rec.old_expr);
  w.Id32(rec.expr_owner);
  EncodeLocation(w, rec.orig_loc);
  EncodeLocation(w, rec.dest_loc);
  if (rec.detached != nullptr) {
    EncodeStmt(w, *rec.detached);
  } else {
    w.Tok("nil");
  }
  EncodeExpr(w, rec.replaced.get());
  if (rec.saved_header != nullptr) {
    w.Tok("(");
    w.Str(rec.saved_header->var);
    EncodeExpr(w, rec.saved_header->lo.get());
    EncodeExpr(w, rec.saved_header->hi.get());
    EncodeExpr(w, rec.saved_header->step.get());
    w.Tok(")");
  } else {
    w.Tok("nil");
  }
  w.Str(rec.description);
  w.Tok(")");
}

ActionRecord DecodeAction(TokenReader& r) {
  r.Expect("(");
  ActionRecord rec;
  const long long kind = r.Int();
  if (kind < 0 || kind > static_cast<int>(ActionKind::kModify)) {
    Malformed("bad action kind");
  }
  rec.kind = static_cast<ActionKind>(kind);
  rec.stamp = r.U32();
  rec.undone = r.Int() != 0;
  rec.stmt = StmtId(r.U32());
  rec.copy = StmtId(r.U32());
  rec.new_expr = ExprId(r.U32());
  rec.old_expr = ExprId(r.U32());
  rec.expr_owner = StmtId(r.U32());
  rec.orig_loc = DecodeLocation(r);
  rec.dest_loc = DecodeLocation(r);
  rec.detached = DecodeStmtOrNil(r);
  rec.replaced = DecodeExpr(r);
  {
    const std::string tok = r.Next();
    if (tok == "(") {
      auto header = std::make_unique<ActionRecord::HeaderPayload>();
      header->var = r.Str();
      header->lo = DecodeExpr(r);
      header->hi = DecodeExpr(r);
      header->step = DecodeExpr(r);
      r.Expect(")");
      rec.saved_header = std::move(header);
    } else if (tok != "nil") {
      Malformed("expected header payload or nil");
    }
  }
  rec.description = r.Str();
  r.Expect(")");
  return rec;
}

void EncodeTransformRecord(TokenWriter& w, const TransformRecord& rec) {
  w.Tok("(");
  w.U32(rec.stamp);
  w.Int(TransformKindIndex(rec.kind));
  w.Int(rec.undone ? 1 : 0);
  w.Int(rec.is_edit ? 1 : 0);
  w.Tok("(");
  w.Int(TransformKindIndex(rec.site.kind));
  w.Id32(rec.site.s1);
  w.Id32(rec.site.s2);
  w.Id32(rec.site.expr);
  w.Str(rec.site.var);
  w.Int(rec.site.value);
  w.Tok(")");
  w.Int(static_cast<long long>(rec.actions.size()));
  for (ActionId id : rec.actions) w.Id32(id);
  w.Int(static_cast<long long>(rec.aux_stmts.size()));
  for (StmtId id : rec.aux_stmts) w.Id32(id);
  w.Int(static_cast<long long>(rec.aux_longs.size()));
  for (long v : rec.aux_longs) w.Int(v);
  w.Str(rec.summary);
  w.Tok(")");
}

TransformKind DecodeTransformKind(TokenReader& r) {
  const long long idx = r.Int();
  if (idx < 0 || idx >= kNumTransformKinds) Malformed("bad transform kind");
  return TransformKindFromIndex(static_cast<int>(idx));
}

TransformRecord DecodeTransformRecord(TokenReader& r) {
  r.Expect("(");
  TransformRecord rec;
  rec.stamp = r.U32();
  rec.kind = DecodeTransformKind(r);
  rec.undone = r.Int() != 0;
  rec.is_edit = r.Int() != 0;
  r.Expect("(");
  rec.site.kind = DecodeTransformKind(r);
  rec.site.s1 = StmtId(r.U32());
  rec.site.s2 = StmtId(r.U32());
  rec.site.expr = ExprId(r.U32());
  rec.site.var = r.Str();
  rec.site.value = static_cast<long>(r.Int());
  r.Expect(")");
  const std::size_t na = r.Count(1u << 24);
  for (std::size_t i = 0; i < na; ++i) {
    rec.actions.push_back(ActionId(r.U32()));
  }
  const std::size_t ns = r.Count(1u << 24);
  for (std::size_t i = 0; i < ns; ++i) {
    rec.aux_stmts.push_back(StmtId(r.U32()));
  }
  const std::size_t nl = r.Count(1u << 24);
  for (std::size_t i = 0; i < nl; ++i) {
    rec.aux_longs.push_back(static_cast<long>(r.Int()));
  }
  rec.summary = r.Str();
  r.Expect(")");
  return rec;
}

void EncodeAnnotationSide(
    TokenWriter& w,
    const std::map<std::uint32_t, std::vector<Annotation>>& side) {
  w.Int(static_cast<long long>(side.size()));
  for (const auto& [node, annos] : side) {
    w.U32(node);
    w.Int(static_cast<long long>(annos.size()));
    for (const Annotation& a : annos) {
      w.Int(static_cast<int>(a.kind));
      w.U32(a.stamp);
      w.Id32(a.action);
    }
  }
}

template <typename AddFn>
void DecodeAnnotationSide(TokenReader& r, AddFn add) {
  const std::size_t nodes = r.Count(1u << 24);
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::uint32_t node = r.U32();
    const std::size_t n = r.Count(1u << 24);
    for (std::size_t j = 0; j < n; ++j) {
      Annotation a;
      const long long kind = r.Int();
      if (kind < 0 || kind > static_cast<int>(ActionKind::kModify)) {
        Malformed("bad annotation kind");
      }
      a.kind = static_cast<ActionKind>(kind);
      a.stamp = r.U32();
      a.action = ActionId(r.U32());
      add(node, a);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Whole image.
// ---------------------------------------------------------------------------

std::string EncodeSessionImage(Session& session) {
  TokenWriter w;
  Program& program = session.program();
  w.Tok("pivot-image");
  w.Int(1);
  w.Tok("counters");
  w.U32(program.next_stmt_id());
  w.U32(program.next_expr_id());
  w.U32(session.history().next_stamp());

  w.Tok("program");
  w.Int(static_cast<long long>(program.top().size()));
  for (const StmtPtr& s : program.top()) EncodeStmt(w, *s);

  const Journal& journal = session.journal();
  w.Tok("journal");
  w.Int(static_cast<long long>(journal.records().size()));
  for (const ActionRecord& rec : journal.records()) EncodeAction(w, rec);

  // Annotations sorted by node id for determinism; per-node vectors keep
  // their order (it is the undo machinery's nesting order).
  std::map<std::uint32_t, std::vector<Annotation>> stmt_side;
  std::map<std::uint32_t, std::vector<Annotation>> expr_side;
  journal.annotations().ForEachStmtAnno(
      [&](StmtId id, const Annotation& a) {
        stmt_side[id.value()].push_back(a);
      });
  journal.annotations().ForEachExprAnno(
      [&](ExprId id, const Annotation& a) {
        expr_side[id.value()].push_back(a);
      });
  w.Tok("annos");
  EncodeAnnotationSide(w, stmt_side);
  EncodeAnnotationSide(w, expr_side);

  w.Tok("edits");
  w.Int(static_cast<long long>(journal.edit_stamps().size()));
  for (OrderStamp s : journal.edit_stamps()) w.U32(s);

  w.Tok("history");
  w.Int(static_cast<long long>(session.history().records().size()));
  for (const TransformRecord& rec : session.history().records()) {
    EncodeTransformRecord(w, rec);
  }
  w.Tok("end");
  return w.Take();
}

DecodedImage DecodeSessionImage(const std::string& image) {
  TokenReader r(image);
  DecodedImage out;
  r.Expect("pivot-image");
  if (r.Int() != 1) Malformed("unknown image version");
  r.Expect("counters");
  const std::uint32_t next_stmt = r.U32();
  const std::uint32_t next_expr = r.U32();
  out.state.next_stamp = r.U32();

  r.Expect("program");
  const std::size_t ntop = r.Count(1u << 24);
  for (std::size_t i = 0; i < ntop; ++i) {
    // Append registers the subtree; preset ids are adopted, not reassigned.
    out.program.Append(DecodeStmt(r));
  }

  r.Expect("journal");
  const std::size_t nrec = r.Count(1u << 24);
  for (std::size_t i = 0; i < nrec; ++i) {
    ActionRecord rec = DecodeAction(r);
    rec.id = ActionId(static_cast<std::uint32_t>(i + 1));
    out.state.actions.push_back(std::move(rec));
  }

  r.Expect("annos");
  DecodeAnnotationSide(r, [&](std::uint32_t node, const Annotation& a) {
    out.state.annotations.AddStmt(StmtId(node), a);
  });
  DecodeAnnotationSide(r, [&](std::uint32_t node, const Annotation& a) {
    out.state.annotations.AddExpr(ExprId(node), a);
  });

  r.Expect("edits");
  const std::size_t nedit = r.Count(1u << 24);
  for (std::size_t i = 0; i < nedit; ++i) {
    out.state.edit_stamps.push_back(r.U32());
  }

  r.Expect("history");
  const std::size_t nhist = r.Count(1u << 24);
  for (std::size_t i = 0; i < nhist; ++i) {
    out.state.history.push_back(DecodeTransformRecord(r));
  }
  r.Expect("end");
  if (!r.AtEnd()) Malformed("trailing data");

  out.program.RestoreIdCounters(next_stmt, next_expr);
  return out;
}

void Session::RestorePersistedState(SessionState state) {
  journal_.RestoreState(std::move(state.actions), std::move(state.annotations),
                        std::move(state.edit_stamps));
  history_.RestoreState(std::move(state.history), state.next_stamp);
  // Derived analyses were built (if at all) against an empty journal; drop
  // them.
  program_.BumpEpoch();
}

}  // namespace pivot
