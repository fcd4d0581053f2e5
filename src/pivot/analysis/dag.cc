#include "pivot/analysis/dag.h"

#include <algorithm>
#include <sstream>

#include "pivot/support/diagnostics.h"

namespace pivot {
namespace {

bool IsSimple(const Stmt& stmt) {
  return stmt.kind == StmtKind::kAssign || stmt.kind == StmtKind::kRead ||
         stmt.kind == StmtKind::kWrite;
}

void CollectBlocksIn(const std::vector<StmtPtr>& body,
                     std::vector<BasicBlock>& out) {
  BasicBlock current;
  auto flush = [&] {
    if (!current.stmts.empty()) {
      out.push_back(std::move(current));
      current = BasicBlock{};
    }
  };
  for (const auto& stmt_ptr : body) {
    Stmt& stmt = *stmt_ptr;
    if (IsSimple(stmt)) {
      current.stmts.push_back(&stmt);
      continue;
    }
    flush();
    CollectBlocksIn(stmt.body, out);
    CollectBlocksIn(stmt.else_body, out);
  }
  flush();
}

}  // namespace

std::vector<BasicBlock> CollectBasicBlocks(Program& program) {
  std::vector<BasicBlock> blocks;
  CollectBlocksIn(program.top(), blocks);
  return blocks;
}

const BlockDag* BlockDags::DagOf(const Stmt& stmt) const {
  auto it = block_of.find(stmt.id);
  if (it == block_of.end()) return nullptr;
  return &dags[static_cast<std::size_t>(it->second)];
}

BlockDags BuildBlockDags(Program& program) {
  BlockDags result;
  result.blocks = CollectBasicBlocks(program);
  result.dags.reserve(result.blocks.size());
  for (std::size_t b = 0; b < result.blocks.size(); ++b) {
    result.dags.emplace_back(result.blocks[b]);
    for (const Stmt* stmt : result.blocks[b].stmts) {
      result.block_of[stmt->id] = static_cast<int>(b);
    }
  }
  return result;
}

BlockDag::BlockDag(const BasicBlock& block) {
  for (Stmt* stmt : block.stmts) {
    switch (stmt->kind) {
      case StmtKind::kAssign: {
        const std::size_t before = nodes_.size();
        const int value = Build(*stmt->rhs);
        value_of_[stmt->id] = value;
        if (nodes_.size() == before &&
            nodes_[static_cast<std::size_t>(value)].kind ==
                DagNode::Kind::kOp) {
          reused_.push_back(stmt);  // RHS hit an existing op node
        }
        if (stmt->lhs->kind == ExprKind::kVarRef) {
          // Retarget the name: remove the old label, add the new one.
          for (auto& node : nodes_) {
            auto it = std::find(node.labels.begin(), node.labels.end(),
                                stmt->lhs->name);
            if (it != node.labels.end()) node.labels.erase(it);
          }
          nodes_[static_cast<std::size_t>(value)].labels.push_back(
              stmt->lhs->name);
          current_[stmt->lhs->name] = value;
        }
        // Array-element stores invalidate value numbering of the array.
        if (stmt->lhs->kind == ExprKind::kArrayRef) {
          current_.erase(stmt->lhs->name);
        }
        break;
      }
      case StmtKind::kRead:
        // A read produces an unknown value: fresh leaf.
        if (stmt->lhs->kind == ExprKind::kVarRef) {
          DagNode leaf;
          leaf.kind = DagNode::Kind::kLeafVar;
          leaf.var = stmt->lhs->name + "$in";
          leaf.labels.push_back(stmt->lhs->name);
          nodes_.push_back(std::move(leaf));
          current_[stmt->lhs->name] = static_cast<int>(nodes_.size()) - 1;
        }
        break;
      case StmtKind::kWrite:
        value_of_[stmt->id] = Build(*stmt->rhs);
        break;
      default:
        PIVOT_UNREACHABLE("non-simple statement in a basic block");
    }
  }
}

int BlockDag::ValueOf(const Stmt& stmt) const {
  auto it = value_of_.find(stmt.id);
  return it == value_of_.end() ? -1 : it->second;
}

int BlockDag::Leaf(const std::string& var) {
  auto it = current_.find(var);
  if (it != current_.end()) return it->second;
  DagNode leaf;
  leaf.kind = DagNode::Kind::kLeafVar;
  leaf.var = var;
  nodes_.push_back(std::move(leaf));
  const int id = static_cast<int>(nodes_.size()) - 1;
  current_[var] = id;
  return id;
}

int BlockDag::Const(double value) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == DagNode::Kind::kLeafConst &&
        nodes_[i].const_value == value) {
      return static_cast<int>(i);
    }
  }
  DagNode leaf;
  leaf.kind = DagNode::Kind::kLeafConst;
  leaf.const_value = value;
  nodes_.push_back(std::move(leaf));
  return static_cast<int>(nodes_.size()) - 1;
}

int BlockDag::Build(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kIntConst:
      return Const(static_cast<double>(e.ival));
    case ExprKind::kRealConst:
      return Const(e.rval);
    case ExprKind::kVarRef:
      return Leaf(e.name);
    case ExprKind::kArrayRef: {
      // Element reads are not value-numbered (subscripts may alias); model
      // each as a fresh leaf named by its source form.
      DagNode leaf;
      leaf.kind = DagNode::Kind::kLeafVar;
      leaf.var = ExprToString(e);
      nodes_.push_back(std::move(leaf));
      return static_cast<int>(nodes_.size()) - 1;
    }
    case ExprKind::kUnary: {
      const int zero = Const(0.0);
      const int kid = Build(*e.kids[0]);
      return FindOrAddOp(BinOp::kSub, {zero, kid});
    }
    case ExprKind::kBinary: {
      const int l = Build(*e.kids[0]);
      const int r = Build(*e.kids[1]);
      return FindOrAddOp(e.bin, {l, r});
    }
  }
  PIVOT_UNREACHABLE("expression kind");
}

int BlockDag::FindOrAddOp(BinOp op, std::vector<int> kids) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == DagNode::Kind::kOp && nodes_[i].op == op &&
        nodes_[i].kids == kids) {
      return static_cast<int>(i);
    }
  }
  DagNode node;
  node.kind = DagNode::Kind::kOp;
  node.op = op;
  node.kids = std::move(kids);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

std::string BlockDag::ToString() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const DagNode& node = nodes_[i];
    os << "n" << i << ": ";
    switch (node.kind) {
      case DagNode::Kind::kLeafVar: os << node.var; break;
      case DagNode::Kind::kLeafConst: os << node.const_value; break;
      case DagNode::Kind::kOp:
        os << BinOpToString(node.op) << "(";
        for (std::size_t k = 0; k < node.kids.size(); ++k) {
          if (k != 0) os << ", ";
          os << "n" << node.kids[k];
        }
        os << ")";
        break;
    }
    if (!node.labels.empty()) {
      os << "  [";
      for (std::size_t k = 0; k < node.labels.size(); ++k) {
        if (k != 0) os << ", ";
        os << node.labels[k];
      }
      os << "]";
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace pivot
