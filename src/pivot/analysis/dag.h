// Per-basic-block DAG (low level of the two-level representation).
//
// Classic value-numbering DAG à la Aho–Sethi–Ullman: leaves are the
// initial values of variables and constants; interior nodes are operations;
// each node carries the set of names currently holding its value. The DAG
// exposes the within-block common subexpressions that the low-level half
// of the paper's representation tracks, and its dump is the ADAG view the
// Figure-1 benchmark renders.
#ifndef PIVOT_ANALYSIS_DAG_H_
#define PIVOT_ANALYSIS_DAG_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/ir/program.h"

namespace pivot {

// A maximal run of consecutive simple statements (assign/read/write) in one
// body list.
struct BasicBlock {
  std::vector<Stmt*> stmts;
};

// All basic blocks of the program, in layout order.
std::vector<BasicBlock> CollectBasicBlocks(Program& program);

struct DagNode {
  enum class Kind { kLeafVar, kLeafConst, kOp };
  Kind kind = Kind::kLeafVar;
  std::string var;          // kLeafVar: initial value of this name
  double const_value = 0;   // kLeafConst
  BinOp op = BinOp::kAdd;   // kOp (unary minus modeled as 0 - x)
  std::vector<int> kids;
  std::vector<std::string> labels;  // names currently valued here
};

class BlockDag {
 public:
  explicit BlockDag(const BasicBlock& block);

  const std::vector<DagNode>& nodes() const { return nodes_; }

  // Node computed by a statement's RHS, or -1 (non-assign statements).
  int ValueOf(const Stmt& stmt) const;

  // Statements whose RHS mapped to an already existing op node: the
  // within-block common subexpressions.
  const std::vector<Stmt*>& reused() const { return reused_; }

  std::string ToString() const;

 private:
  int Leaf(const std::string& var);
  int Const(double value);
  int Build(const Expr& e);
  int FindOrAddOp(BinOp op, std::vector<int> kids);

  std::vector<DagNode> nodes_;
  std::unordered_map<std::string, int> current_;  // name -> node
  std::unordered_map<StmtId, int> value_of_;
  std::vector<Stmt*> reused_;
};

// Every basic block of the program with its DAG, bundled for the analysis
// cache.
struct BlockDags {
  std::vector<BasicBlock> blocks;
  std::vector<BlockDag> dags;                // aligned with blocks
  std::unordered_map<StmtId, int> block_of;  // stmt -> block index

  // The DAG of the block containing `stmt`, or null for statements outside
  // any basic block (loop / if headers).
  const BlockDag* DagOf(const Stmt& stmt) const;
};

BlockDags BuildBlockDags(Program& program);

}  // namespace pivot

#endif  // PIVOT_ANALYSIS_DAG_H_
