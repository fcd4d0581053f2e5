#include "pivot/persist/wire.h"

#include <iterator>
#include <sstream>

#include "pivot/ir/parser.h"
#include "pivot/persist/token.h"
#include "pivot/support/crc32c.h"
#include "pivot/support/diagnostics.h"

namespace pivot {
namespace {

using persist_internal::Malformed;
using persist_internal::TokenReader;
using persist_internal::TokenWriter;

// Retired genesis slots. The frame once also carried safety_threads (after
// `indexed`) and incremental, parallel_rebuild and threads (after
// `max_depth`), options that no longer exist. The encoder writes their old
// defaults so the byte layout is unchanged; the decoder reads and discards
// whatever an older journal stored there.
constexpr int kRetiredAfterIndexed = 1;
constexpr int kRetiredAfterMaxDepth[] = {0, 0, 4};

constexpr TxnOp kAllOps[] = {
    TxnOp::kApply,      TxnOp::kUndo,       TxnOp::kUndoSet,
    TxnOp::kUndoLast,   TxnOp::kRemoveUnsafe, TxnOp::kEditAdd,
    TxnOp::kEditDelete, TxnOp::kEditMove,   TxnOp::kEditReplaceExpr,
};

TxnOp OpFromName(const std::string& name) {
  for (TxnOp op : kAllOps) {
    if (name == TxnOpName(op)) return op;
  }
  Malformed("unknown operation '" + name + "'");
}

void EncodeDigest(TokenWriter& w, const SessionDigest& d) {
  w.Tok("(");
  w.U32(d.source_crc);
  w.U64(d.history_size);
  w.U32(d.next_stamp);
  w.U64(d.journal_records);
  w.U64(d.annotations);
  w.Tok(")");
}

SessionDigest DecodeDigest(TokenReader& r) {
  SessionDigest d;
  r.Expect("(");
  d.source_crc = r.U32();
  d.history_size = r.U64();
  d.next_stamp = r.U32();
  d.journal_records = r.U64();
  d.annotations = r.U64();
  r.Expect(")");
  return d;
}

TransformKind KindFromIndex(long long idx) {
  if (idx < 0 || idx >= kNumTransformKinds) Malformed("bad transform kind");
  return TransformKindFromIndex(static_cast<int>(idx));
}

}  // namespace

std::string SessionDigest::ToString() const {
  std::ostringstream os;
  os << "source-crc=" << source_crc << " history=" << history_size
     << " next-stamp=" << next_stamp << " actions=" << journal_records
     << " annotations=" << annotations;
  return os.str();
}

SessionDigest ComputeDigest(Session& session) {
  SessionDigest d;
  d.source_crc = Crc32c(session.Source());
  d.history_size = session.history().records().size();
  d.next_stamp = session.history().next_stamp();
  d.journal_records = session.journal().records().size();
  d.annotations = session.journal().annotations().TotalCount();
  return d;
}

std::string EncodeGenesis(const SessionOptions& options,
                          const std::string& source) {
  TokenWriter w;
  w.Tok("genesis");
  w.Int(static_cast<int>(options.undo.heuristic));
  w.Int(options.undo.regional ? 1 : 0);
  w.Int(options.undo.indexed ? 1 : 0);
  w.Int(kRetiredAfterIndexed);
  w.Int(options.undo.max_depth);
  for (const int value : kRetiredAfterMaxDepth) w.Int(value);
  w.Int(options.strict ? 1 : 0);
  w.Str(source);
  return w.Take();
}

GenesisInfo DecodeGenesis(const std::string& body) {
  TokenReader r(body);
  GenesisInfo info;
  r.Expect("genesis");
  const long long heuristic = r.Int();
  if (heuristic < 0 ||
      heuristic > static_cast<int>(UndoOptions::Heuristic::kCustom)) {
    Malformed("bad undo heuristic");
  }
  info.options.undo.heuristic =
      static_cast<UndoOptions::Heuristic>(heuristic);
  info.options.undo.regional = r.Int() != 0;
  info.options.undo.indexed = r.Int() != 0;
  r.Int();  // retired slot
  info.options.undo.max_depth = static_cast<int>(r.Int());
  for (std::size_t i = 0; i < std::size(kRetiredAfterMaxDepth); ++i) r.Int();
  info.options.strict = r.Int() != 0;
  info.source = r.Str();
  if (!r.AtEnd()) Malformed("trailing data in genesis frame");
  return info;
}

std::string EncodeSnapshotBody(std::uint64_t txns, const std::string& payload) {
  return "txns " + std::to_string(txns) + "\n" + payload;
}

SnapshotBody DecodeSnapshotBody(const std::string& body) {
  const std::size_t newline = body.find('\n');
  if (newline == std::string::npos) Malformed("bad snapshot prefix");
  std::istringstream is(body.substr(0, newline));
  std::string tag;
  std::uint64_t txns = 0;
  is >> tag >> txns;
  if (!is || tag != "txns") Malformed("bad snapshot prefix");
  std::string base_tag;
  if (is >> base_tag) {
    // The retired base clause of older version-3 files: checked, ignored.
    std::uint64_t base = 0;
    if (base_tag != "base" || !(is >> base)) {
      Malformed("bad snapshot base clause");
    }
  }
  SnapshotBody out;
  out.txns = txns;
  out.payload = body.substr(newline + 1);
  return out;
}

std::string EncodeTxn(const TxnDescriptor& desc, const SessionDigest& digest) {
  TokenWriter w;
  w.Tok("txn");
  w.Tok(TxnOpName(desc.op));
  w.Tok("(");
  w.Int(TransformKindIndex(desc.apply_site.kind));
  w.Id32(desc.apply_site.s1);
  w.Id32(desc.apply_site.s2);
  w.Id32(desc.apply_site.expr);
  w.Str(desc.apply_site.var);
  w.Int(desc.apply_site.value);
  w.Tok(")");
  w.U32(desc.result_stamp);
  w.Int(static_cast<long long>(desc.undo_stamps.size()));
  for (OrderStamp s : desc.undo_stamps) w.U32(s);
  w.Id32(desc.target);
  w.Id32(desc.parent);
  w.Int(static_cast<int>(desc.body));
  w.U64(desc.index);
  w.Id32(desc.site);
  w.Str(desc.stmt_text);
  w.Str(desc.expr_text);
  EncodeDigest(w, digest);
  return w.Take();
}

TxnInfo DecodeTxn(const std::string& body) {
  TokenReader r(body);
  TxnInfo info;
  r.Expect("txn");
  info.desc.op = OpFromName(r.Next());
  r.Expect("(");
  info.desc.apply_site.kind = KindFromIndex(r.Int());
  info.desc.apply_site.s1 = StmtId(r.U32());
  info.desc.apply_site.s2 = StmtId(r.U32());
  info.desc.apply_site.expr = ExprId(r.U32());
  info.desc.apply_site.var = r.Str();
  info.desc.apply_site.value = static_cast<long>(r.Int());
  r.Expect(")");
  info.desc.result_stamp = r.U32();
  const std::size_t n = r.Count(1u << 24);
  for (std::size_t i = 0; i < n; ++i) {
    info.desc.undo_stamps.push_back(r.U32());
  }
  info.desc.target = StmtId(r.U32());
  info.desc.parent = StmtId(r.U32());
  const long long body_kind = r.Int();
  if (body_kind < 0 || body_kind > static_cast<int>(BodyKind::kElse)) {
    Malformed("bad body kind");
  }
  info.desc.body = static_cast<BodyKind>(body_kind);
  info.desc.index = static_cast<std::size_t>(r.U64());
  info.desc.site = ExprId(r.U32());
  info.desc.stmt_text = r.Str();
  info.desc.expr_text = r.Str();
  info.digest = DecodeDigest(r);
  if (!r.AtEnd()) Malformed("trailing data in txn frame");
  return info;
}

void ReplayTxn(Session& session, const TxnDescriptor& desc) {
  switch (desc.op) {
    case TxnOp::kApply:
      session.Apply(desc.apply_site);
      return;
    case TxnOp::kUndo:
      if (desc.undo_stamps.size() != 1) {
        Malformed("undo frame must carry exactly one stamp");
      }
      session.Undo(desc.undo_stamps[0]);
      return;
    case TxnOp::kUndoSet:
      session.UndoSet(desc.undo_stamps);
      return;
    case TxnOp::kUndoLast:
      session.UndoLast();
      return;
    case TxnOp::kRemoveUnsafe:
      session.RemoveUnsafeTransforms();
      return;
    case TxnOp::kEditAdd: {
      // The recorded text re-parses into a temporary program whose ids
      // must not leak: clone (ids invalid) so fresh registration assigns
      // the same ids the original edit did.
      Program parsed = Parse(desc.stmt_text);
      if (parsed.top().size() != 1) {
        Malformed("edit-add frame does not hold exactly one statement");
      }
      Stmt* parent = desc.parent.valid()
                         ? &session.program().GetStmt(desc.parent)
                         : nullptr;
      session.editor().AddStmt(CloneStmt(*parsed.top()[0]), parent,
                               desc.body, desc.index);
      return;
    }
    case TxnOp::kEditDelete:
      session.editor().DeleteStmt(session.program().GetStmt(desc.target));
      return;
    case TxnOp::kEditMove: {
      Stmt* parent = desc.parent.valid()
                         ? &session.program().GetStmt(desc.parent)
                         : nullptr;
      session.editor().MoveStmt(session.program().GetStmt(desc.target),
                                parent, desc.body, desc.index);
      return;
    }
    case TxnOp::kEditReplaceExpr:
      session.editor().ReplaceExpr(session.program().GetExpr(desc.site),
                                   ParseExpr(desc.expr_text));
      return;
  }
  Malformed("unknown operation");
}

}  // namespace pivot
