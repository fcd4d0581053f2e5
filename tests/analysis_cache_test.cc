// Differential tests for the analysis cache's invalidation.
//
// The contract under test: a session's long-lived AnalysisCache, which
// keeps results across operations and re-derives a family only when the
// program epoch has moved, produces results *bit-identical* to a cache
// built afresh over the same program, across randomized apply/undo
// sequences including fault-injected rollbacks. Identity is checked by a
// canonical signature covering every analysis family, keyed only by
// statement ids and name strings occurring in the current program.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/printer.h"
#include "pivot/ir/random_program.h"
#include "pivot/ir/validate.h"
#include "pivot/support/fault_injector.h"
#include "pivot/support/rng.h"
#include "pivot/transform/catalog.h"

namespace pivot {
namespace {

std::string NodeTag(const Cfg& cfg, int node) {
  const CfgNode& n = cfg.nodes[static_cast<std::size_t>(node)];
  if (n.kind == CfgNode::Kind::kEntry) return "E";
  if (n.kind == CfgNode::Kind::kExit) return "X";
  return std::to_string(n.stmt->id.value());
}

// Every name occurring in the program's attached statements, sorted.
std::vector<std::string> ProgramNames(const Program& program) {
  std::set<std::string> names;
  program.ForEachAttached([&](const Stmt& stmt) {
    const std::string def = DefinedName(stmt);
    if (!def.empty()) names.insert(def);
    if (stmt.is_loop()) names.insert(stmt.loop_var);
    std::vector<std::string> reads;
    CollectReadNames(stmt, reads);
    names.insert(reads.begin(), reads.end());
  });
  return {names.begin(), names.end()};
}

// Canonical dump of every analysis family. Two caches agreeing on this
// string agree on everything a transformation or undo can observe.
std::string Signature(AnalysisCache& cache, Program& program) {
  std::ostringstream os;
  const std::vector<std::string> names = ProgramNames(program);

  const FlatProgram& flat = cache.flat();
  os << "flat:";
  for (const Stmt* stmt : flat.order) os << ' ' << stmt->id.value();
  os << '\n';

  const Cfg& cfg = cache.cfg();
  const Dominators& doms = cache.doms();
  os << "cfg/doms:\n";
  for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
    const int node = static_cast<int>(n);
    os << "  " << NodeTag(cfg, node) << " ->";
    for (int succ : cfg.nodes[n].succs) os << ' ' << NodeTag(cfg, succ);
    os << " idom=";
    const int idom = doms.Idom(node);
    os << (idom < 0 ? std::string("-") : NodeTag(cfg, idom)) << '\n';
  }

  const ReachingDefs& reaching = cache.reaching();
  const Liveness& liveness = cache.liveness();
  os << "dataflow:\n";
  program.ForEachAttached([&](const Stmt& stmt) {
    os << "  s" << stmt.id.value() << ":";
    for (const std::string& name : names) {
      std::vector<std::string> defs;
      for (const Definition* def : reaching.DefsReaching(stmt, name)) {
        defs.push_back(def->entry ? "entry"
                                  : std::to_string(def->stmt->id.value()) +
                                        (def->weak ? "w" : ""));
      }
      std::sort(defs.begin(), defs.end());
      os << ' ' << name << "={";
      for (const std::string& d : defs) os << d << ',';
      os << "}" << (liveness.LiveIn(stmt, name) ? "i" : "")
         << (liveness.LiveOut(stmt, name) ? "o" : "");
    }
    os << '\n';
  });

  const AvailExprs& avail = cache.avail();
  os << "avail:";
  for (std::size_t cls = 0; cls < avail.NumClasses(); ++cls) {
    os << ' ' << ExprToString(avail.Representative(static_cast<int>(cls)));
  }
  os << '\n';
  program.ForEachAttached([&](const Stmt& stmt) {
    os << "  s" << stmt.id.value() << ":";
    for (std::size_t cls = 0; cls < avail.NumClasses(); ++cls) {
      os << (avail.AvailableAt(stmt, static_cast<int>(cls)) ? '1' : '0');
    }
    os << '\n';
  });

  const DefUseChains& defuse = cache.defuse();
  os << "defuse:\n";
  program.ForEachAttached([&](const Stmt& stmt) {
    std::vector<std::uint32_t> uses;
    for (const Stmt* use : defuse.UsesOf(stmt)) {
      uses.push_back(use->id.value());
    }
    std::sort(uses.begin(), uses.end());
    os << "  s" << stmt.id.value() << ":";
    for (const std::uint32_t use : uses) os << ' ' << use;
    os << '\n';
  });

  const LoopTree& loops = cache.loops();
  os << "loops:\n";
  for (const LoopInfo& info : loops.loops()) {
    os << "  s" << info.loop->id.value() << " parent="
       << (info.parent_loop != nullptr
               ? std::to_string(info.parent_loop->id.value())
               : std::string("-"))
       << " depth=" << info.depth << " const=" << info.const_bounds;
    if (info.const_bounds) {
      os << " [" << info.lo << ',' << info.hi << ',' << info.step << ']';
    }
    os << '\n';
  }

  std::vector<std::string> dep_lines;
  for (const Dependence& dep : cache.deps()) dep_lines.push_back(dep.ToString());
  std::sort(dep_lines.begin(), dep_lines.end());
  os << "deps:\n";
  for (const std::string& line : dep_lines) os << "  " << line << '\n';

  os << "pdg:\n" << cache.pdg().ToString();
  os << "summaries:\n" << cache.summaries().ToString();

  const BlockDags& dags = cache.block_dags();
  os << "dags:\n";
  for (std::size_t b = 0; b < dags.blocks.size(); ++b) {
    os << "  block";
    for (const Stmt* stmt : dags.blocks[b].stmts) os << ' ' << stmt->id.value();
    os << '\n' << dags.dags[b].ToString();
  }
  return os.str();
}

// Named for its step-by-step comparison: every step of the session is
// checked, not just its end state.
class IncrementalDifferential
    : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// The acceptance harness: ~90 randomized steps per seed (applies at random
// sites, undos in random order, fault-injected attempts that roll back),
// comparing the session's long-lived cache against a cache built afresh on
// the same program after every step. Across the seed set this exercises
// well over 1000 steps.
TEST_P(IncrementalDifferential, MatchesFromScratchAcrossRandomSession) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);

  RandomProgramOptions gen;
  gen.seed = seed * 31 + 7;
  gen.target_stmts = 28;
  Program program = GenerateRandomProgram(gen);

  Session s(std::move(program));

  std::vector<OrderStamp> stamps;
  auto random_apply = [&] {
    const TransformKind kind =
        TransformKindFromIndex(rng.UniformInt(0, kNumTransformKinds - 1));
    const auto ops = s.FindOpportunities(kind);
    if (ops.empty()) return;
    stamps.push_back(s.Apply(ops[rng.Index(ops.size())]));
  };
  auto random_undo = [&] {
    if (stamps.empty()) return;
    const OrderStamp stamp = stamps[rng.Index(stamps.size())];
    if (s.history().FindByStamp(stamp)->undone) return;
    try {
      s.Undo(stamp);
    } catch (const ProgramError&) {
      // Blocked undo (unidentifiable cause): rolled back, still a step.
    }
  };

  for (int step = 0; step < 90; ++step) {
    const int roll = rng.UniformInt(0, 9);
    if (roll < 8) {
      if (roll < 6) {
        random_apply();
      } else {
        random_undo();
      }
    } else {
      // Fault-injected attempt: the operation dies at a random crossing
      // and the transaction rolls back; the rolled-back program must not
      // be readable against any post-fault analysis result.
      FaultInjector::Instance().ArmNthCrossing(rng.UniformInt(1, 5));
      try {
        if (rng.Chance(0.5)) {
          random_apply();
        } else {
          random_undo();
        }
      } catch (const FaultInjectedError&) {
      }
      FaultInjector::Instance().Reset();
    }
    AnalysisCache fresh(s.program());
    ASSERT_EQ(Signature(s.analyses(), s.program()),
              Signature(fresh, s.program()))
        << "long-lived and fresh analyses diverged at step " << step
        << " (seed " << seed << "):\n"
        << s.Source();
    ExpectValid(s.program());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

// Regression: Invalidate() used to reset the cached epoch to 0, a value a
// program epoch can alias, so an explicitly invalidated cache could be
// judged up to date on its next query. The sentinel is now "no validated
// epoch": the next access must re-derive even though the program epoch has
// not moved.
TEST(AnalysisCacheInvalidate, ForcesRebuildWithoutEpochBump) {
  Program p = Parse("x = 1\nwrite x\n");
  AnalysisCache cache(p);
  cache.flat();
  cache.cfg();
  const std::uint64_t before = cache.rebuild_count();
  const std::uint64_t epoch = p.epoch();

  cache.Invalidate();
  ASSERT_EQ(p.epoch(), epoch);  // no mutation happened
  cache.flat();
  cache.cfg();
  EXPECT_EQ(cache.rebuild_count(), before + 2)
      << "Invalidate with an unchanged epoch must still force re-derivation";
}

// An epoch move drops every family, but each is re-derived only when it is
// next read: a query rebuilds what it reads and nothing more.
TEST(AnalysisCacheInvalidate, RebuildsOnlyTheFamiliesReadAfterAMutation) {
  Program p = Parse("x = 1\nwrite x\n");
  AnalysisCache cache(p);
  cache.summaries();
  const std::uint64_t flat = cache.family_rebuilds(
      AnalysisCache::Family::kFlat);
  const std::uint64_t cfg = cache.family_rebuilds(AnalysisCache::Family::kCfg);
  const std::uint64_t deps =
      cache.family_rebuilds(AnalysisCache::Family::kDeps);
  const std::uint64_t total = cache.rebuild_count();

  Stmt& assign = *p.top().front();
  ExprPtr old = p.ReplaceSlotExpr(assign, ExprSlot::kRhs, MakeIntConst(7));
  cache.cfg();
  EXPECT_EQ(cache.family_rebuilds(AnalysisCache::Family::kCfg), cfg + 1);
  EXPECT_EQ(cache.family_rebuilds(AnalysisCache::Family::kFlat), flat);
  EXPECT_EQ(cache.family_rebuilds(AnalysisCache::Family::kDeps), deps);
  EXPECT_EQ(cache.rebuild_count(), total + 1);

  AnalysisCache fresh(p);
  EXPECT_EQ(Signature(cache, p), Signature(fresh, p));
  p.UnregisterExprTree(*old);  // retire the replaced subtree
}

class RollbackInvalidation : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Satellite regression: a fault mid-operation rolls the program back via
// the journal replay, mutating it underneath the analysis cache; the
// rollback must explicitly invalidate the cache so the rolled-back program
// can never be read against post-fault (possibly half-built) results.
TEST_F(RollbackInvalidation, RolledBackProgramNeverSeesPostFaultAnalyses) {
  Session s(Parse("x = 3\ny = x + 1\nwrite y\n"));
  Signature(s.analyses(), s.program());  // warm every family
  const std::string before = s.Source();

  // Die right after CTP's journaled Modify replaced the use — the program
  // is mutated, the transaction is still open.
  FaultInjector::Instance().Arm("journal.modify.post", 1);
  const auto ops = s.FindOpportunities(TransformKind::kCtp);
  ASSERT_FALSE(ops.empty());
  EXPECT_THROW(s.Apply(ops.front()), FaultInjectedError);
  FaultInjector::Instance().Reset();

  EXPECT_EQ(s.Source(), before) << "rollback must restore the program";
  EXPECT_GE(s.recovery().rollbacks, 1u);

  // The session cache must now agree with a cache built from nothing.
  AnalysisCache fresh(s.program());
  EXPECT_EQ(Signature(s.analyses(), s.program()),
            Signature(fresh, s.program()));
}

}  // namespace
}  // namespace pivot
