// Iterative data-flow analyses over the statement-level CFG.
//
// Three classic bit-vector problems (reaching definitions, live variables,
// available expressions) plus ReachesIntact, a per-query forward *must*
// analysis used by the legality checks of CSE / constant propagation / copy
// propagation: "does control on every path to `to` pass through `from`
// with none of the watched names redefined afterwards?".
//
// Array semantics: an assignment to an array element is a *weak* definition
// of the array name — it generates a definition but kills nothing, and for
// liveness it never makes the array dead. Scalars are strong.
#ifndef PIVOT_ANALYSIS_DATAFLOW_H_
#define PIVOT_ANALYSIS_DATAFLOW_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/analysis/cfg.h"
#include "pivot/support/bitset.h"

namespace pivot {

// Interned variable/array names.
class NameTable {
 public:
  int Intern(const std::string& name);
  // -1 when the name was never interned.
  int Lookup(const std::string& name) const;
  const std::string& NameOf(int index) const;
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> index_;
};

// What a single CFG node defines and uses. Shared by all the solvers.
struct NodeFacts {
  int strong_def = -1;           // scalar name defined (kills), or -1
  int weak_def = -1;             // array name defined (no kill), or -1
  std::vector<int> uses;         // names read
};

// Per-node def/use facts for a whole CFG (names interned into `names`).
struct ProgramFacts {
  NameTable names;
  std::vector<NodeFacts> node_facts;  // indexed by CFG node
};
ProgramFacts ComputeFacts(const Cfg& cfg);

// The block-local fact of one statement, interning into `names`.
NodeFacts ComputeNodeFacts(const Stmt& stmt, NameTable& names);

// --- Reaching definitions (forward, may) ---
struct Definition {
  Stmt* stmt = nullptr;  // assign/read statement or do (loop variable);
                         // null for the entry pseudo-definition
  int name = -1;
  bool weak = false;     // array-element definition
  // Every name carries an implicit definition at program entry (Pf reads
  // uninitialized storage as 0). Without it, a real definition on one
  // branch would falsely count as the "only" one reaching a join that
  // other def-free paths also reach.
  bool entry = false;
};

class ReachingDefs {
 public:
  ReachingDefs(const Cfg& cfg, const ProgramFacts& facts);

  const std::vector<Definition>& defs() const { return defs_; }

  // Definitions of `name` reaching the entry of `use_stmt`'s node.
  std::vector<const Definition*> DefsReaching(const Stmt& use_stmt,
                                              const std::string& name) const;

  // True if the *only* definition of `name` reaching `use_stmt` is the one
  // made by `def_stmt` (the precise legality core of constant propagation).
  bool OnlyReachingDef(const Stmt& def_stmt, const Stmt& use_stmt,
                       const std::string& name) const;

 private:
  const Cfg& cfg_;
  const ProgramFacts& facts_;
  std::vector<Definition> defs_;
  std::vector<DenseBitset> in_;
};

// --- Live variables (backward, may) ---
class Liveness {
 public:
  Liveness(const Cfg& cfg, const ProgramFacts& facts);

  bool LiveIn(const Stmt& stmt, const std::string& name) const;
  bool LiveOut(const Stmt& stmt, const std::string& name) const;

  // True when the scalar assignment `stmt` computes a value nobody reads:
  // the dead-code-elimination pre-condition (¬∃ S_l with S_i δ S_l).
  bool IsDeadStore(const Stmt& stmt) const;

 private:
  const Cfg& cfg_;
  const ProgramFacts& facts_;
  std::vector<DenseBitset> live_in_;
  std::vector<DenseBitset> live_out_;
};

// --- Available expressions (forward, must) ---
// The universe is every binary full-RHS expression over scalar variables /
// constants, matching the paper's CSE pattern "S_i: A = B op C".
class AvailExprs {
 public:
  AvailExprs(const Cfg& cfg, const ProgramFacts& facts);

  // Index of the expression class structurally equal to `e`, or -1.
  int ClassOf(const Expr& e) const;
  // A representative expression of the class.
  const Expr& Representative(int cls) const;
  std::size_t NumClasses() const { return universe_.size(); }

  // Is class `cls` available on entry to `stmt`'s node?
  bool AvailableAt(const Stmt& stmt, int cls) const;

 private:
  const Cfg& cfg_;
  std::vector<const Expr*> universe_;
  std::vector<DenseBitset> in_;
};

// --- Per-query path check ---
// True iff every path from entry to (the entry of) `to` passes through
// `from`, and after the last such pass none of the names in `watched`
// (name-table indices into facts.names) is strongly redefined by a node
// other than `from` itself. This is the legality core of CSE and copy
// propagation; it subsumes the dominance requirement.
bool ReachesIntact(const Cfg& cfg, const ProgramFacts& facts,
                   const Stmt& from, const Stmt& to,
                   const std::vector<int>& watched);

}  // namespace pivot

#endif  // PIVOT_ANALYSIS_DATAFLOW_H_
