// The batch undo planner (UndoSet), the depth-guard error surface, and
// the indexed/linear A/B. The planner's contract is observational
// equivalence with sequential undo: same surviving sets, same final
// program, every oracle invariant intact — with strictly fewer analysis
// re-derivations.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/ir/validate.h"
#include "pivot/oracle/fuzzcase.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

const char* kSection52 = R"(
1: d = e + f
2: c = 1
3: do i = 1, 100
4:   do j = 1, 50
5:     a(j) = b(j) + c
6:     r(i, j) = e + f
     enddo
   enddo
)";

std::set<OrderStamp> Surviving(Session& s) {
  std::set<OrderStamp> live;
  for (const TransformRecord& rec : s.history().records()) {
    if (!rec.undone && !rec.is_edit) live.insert(rec.stamp);
  }
  return live;
}

// --- UndoSet equivalence with sequential undo ---

TEST(UndoSet, MatchesSequentialUndoOnIndependentTargets) {
  const char* src = "x = 1\nx = 2\ny = 3\ny = 4\nz = 5\nz = 6\n"
                    "write x\nwrite y\nwrite z";
  Session batch(Parse(src));
  Session seq(Parse(src));
  std::vector<OrderStamp> stamps;
  for (Session* s : {&batch, &seq}) {
    const auto ops = s->FindOpportunities(TransformKind::kDce);
    ASSERT_EQ(ops.size(), 3u);
    std::vector<OrderStamp> applied;
    for (const Opportunity& op : ops) applied.push_back(s->Apply(op));
    stamps = applied;
  }
  const UndoStats stats = batch.UndoSet({stamps[0], stamps[2]});
  // Sequential mirror: the planner inverts latest-first.
  seq.Undo(stamps[2]);
  seq.Undo(stamps[0]);
  EXPECT_EQ(stats.transforms_undone, 2);
  EXPECT_EQ(batch.Source(), seq.Source());
  EXPECT_EQ(Surviving(batch), Surviving(seq));
  ExpectValid(batch.program());
}

TEST(UndoSet, ResolvesAffectingChainAcrossTargets) {
  // §5.2: undoing INX forces ICM into the plan even when only INX is
  // requested.
  Session s(Parse(kSection52));
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCse).has_value());
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  const OrderStamp inx = *s.ApplyFirst(TransformKind::kInx);
  const OrderStamp icm = *s.ApplyFirst(TransformKind::kIcm);

  std::vector<OrderStamp> undone;
  const UndoStats stats = s.UndoSet({inx}, &undone);
  EXPECT_EQ(stats.transforms_undone, 2);
  EXPECT_EQ(undone, (std::vector<OrderStamp>{inx, icm}));
  EXPECT_TRUE(s.history().FindByStamp(inx)->undone);
  EXPECT_TRUE(s.history().FindByStamp(icm)->undone);
  ExpectValid(s.program());
}

TEST(UndoSet, SkipsDuplicatesAndAlreadyUndone) {
  Session s(Parse("x = 1\nx = 2\ny = 3\ny = 4\nwrite x\nwrite y"));
  const auto ops = s.FindOpportunities(TransformKind::kDce);
  ASSERT_EQ(ops.size(), 2u);
  const OrderStamp t1 = s.Apply(ops[0]);
  const OrderStamp t2 = s.Apply(ops[1]);
  s.Undo(t1);
  const UndoStats stats = s.UndoSet({t1, t2, t2, t1});
  EXPECT_EQ(stats.transforms_undone, 1);
  EXPECT_TRUE(s.history().FindByStamp(t2)->undone);
}

TEST(UndoSet, UnknownStampThrowsAndLeavesStateIntact) {
  Session s(Parse("x = 1\nx = 2\nwrite x"));
  const OrderStamp t = *s.ApplyFirst(TransformKind::kDce);
  const std::string before = s.Source();
  EXPECT_THROW(s.UndoSet({t, 999}), ProgramError);
  EXPECT_EQ(s.Source(), before);
  EXPECT_FALSE(s.history().FindByStamp(t)->undone);
}

TEST(UndoSet, EditStampThrows) {
  Session s(Parse("x = 1\nx = 2\nwrite x"));
  Stmt* victim = s.program().top().front().get();
  const OrderStamp edit = s.editor().DeleteStmt(*victim);
  EXPECT_THROW(s.UndoSet({edit}), ProgramError);
}

TEST(UndoSet, BatchSharesAnalysisRefreshes) {
  // Undo the two *earliest* of four same-name dead-store eliminations:
  // the two later ones stay live, sit in every restored store's region,
  // are marked dce->dce in the table, and get safety-rechecked (a
  // liveness query) by each scan. Sequential undo pays one analysis
  // re-derivation window per target; the batch's wave 2 adjudicates both
  // against one settled program and shares a single refresh.
  const char* src = "x = 1\nx = 2\nx = 3\nx = 4\nx = 5\nwrite x";
  Session batch(Parse(src));
  Session seq(Parse(src));
  std::vector<OrderStamp> stamps;
  for (Session* s : {&batch, &seq}) {
    const auto ops = s->FindOpportunities(TransformKind::kDce);
    ASSERT_EQ(ops.size(), 4u);
    std::vector<OrderStamp> applied;
    for (const Opportunity& op : ops) applied.push_back(s->Apply(op));
    stamps = applied;
  }
  const UndoStats batch_stats = batch.UndoSet({stamps[0], stamps[1]});
  UndoStats seq_stats;
  seq_stats += seq.Undo(stamps[1]);
  seq_stats += seq.Undo(stamps[0]);
  EXPECT_EQ(batch.Source(), seq.Source());
  EXPECT_EQ(Surviving(batch), Surviving(seq));
  EXPECT_EQ(batch_stats.transforms_undone, seq_stats.transforms_undone);
  // Both modes actually did safety work, or the comparison is vacuous.
  EXPECT_GT(batch_stats.safety_checks, 0);
  EXPECT_GT(seq_stats.analysis_rebuilds, 0u);
  EXPECT_LT(batch_stats.analysis_rebuilds, seq_stats.analysis_rebuilds);
}

// --- depth-guard exhaustion is a reported error, never silent ---

TEST(DepthGuard, CanUndoReportsExhaustion) {
  UndoOptions options;
  options.max_depth = 0;
  Session s(Parse("x = 1\nx = 2\nwrite x"), options);
  const OrderStamp t = *s.ApplyFirst(TransformKind::kDce);
  std::string reason;
  EXPECT_FALSE(s.CanUndo(t, &reason));
  EXPECT_NE(reason.find("max_depth"), std::string::npos) << reason;
  EXPECT_GE(s.recovery().undo_depth_exhausted, 1u);
}

TEST(DepthGuard, PreviewReportsExhaustionInsteadOfTruncating) {
  // The seed fell through to possible=true when the chain walk exhausted
  // its guard — a silently truncated answer. It must report instead.
  UndoOptions options;
  options.max_depth = 0;
  Session s(Parse("x = 1\nx = 2\nwrite x"), options);
  const OrderStamp t = *s.ApplyFirst(TransformKind::kDce);
  const UndoEngine::UndoPreview preview = s.engine().Preview(t);
  EXPECT_FALSE(preview.possible);
  EXPECT_NE(preview.blocked_reason.find("max_depth"), std::string::npos);
}

TEST(DepthGuard, UndoThrowsAndRollsBack) {
  UndoOptions options;
  options.max_depth = 0;
  Session s(Parse("x = 1\nx = 2\nwrite x"), options);
  const OrderStamp t = *s.ApplyFirst(TransformKind::kDce);
  const std::string before = s.Source();
  EXPECT_THROW(s.Undo(t), ProgramError);
  EXPECT_EQ(s.Source(), before);
  EXPECT_FALSE(s.history().FindByStamp(t)->undone);
  EXPECT_GE(s.recovery().undo_depth_exhausted, 1u);
  EXPECT_GE(s.recovery().rollbacks, 1u);
}

TEST(DepthGuard, ReportSurfacesExhaustionCount) {
  UndoOptions options;
  options.max_depth = 0;
  Session s(Parse("x = 1\nx = 2\nwrite x"), options);
  const OrderStamp t = *s.ApplyFirst(TransformKind::kDce);
  EXPECT_THROW(s.Undo(t), ProgramError);
  EXPECT_NE(s.recovery().ToString().find("undo depth exhausted"),
            std::string::npos);
}

// --- linear (non-indexed) engine stays equivalent: the A/B handle the
// benchmarks rely on must not drift semantically ---

TEST(IndexedAb, IndexedAndLinearEnginesAgreeOnFuzzSchedules) {
  ReplayOptions linear;
  linear.session.undo.indexed = false;
  FuzzGenOptions gen;
  gen.num_steps = 40;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    FaultInjector::Instance().Reset();
    const FuzzCase c = GenerateFuzzCase(seed, gen);
    const ReplayResult with_index = ReplayFuzzCase(c);
    const ReplayResult without = ReplayFuzzCase(c, linear);
    EXPECT_TRUE(with_index.ok) << with_index.failure;
    EXPECT_TRUE(without.ok) << without.failure;
    EXPECT_EQ(with_index.applied, without.applied);
    EXPECT_EQ(with_index.undone, without.undone);
    EXPECT_EQ(with_index.final_undone, without.final_undone);
  }
  FaultInjector::Instance().Reset();
}

// --- planner differential gates: batch mirror through the full oracle,
// on both candidate sources of the Figure-4 scans ---

struct PlannerParams {
  std::uint64_t seed;
  bool indexed;
};

// How gtest (and so ctest's test list) shows a case: the indexed cases
// keep the bare seed they were listed under before the linear axis.
void PrintTo(const PlannerParams& params, std::ostream* os) {
  *os << params.seed << (params.indexed ? "" : "_linear");
}

std::string PlannerParamsName(
    const ::testing::TestParamInfo<PlannerParams>& info) {
  return ::testing::PrintToString(info.param);
}

std::vector<PlannerParams> MakePlannerParams() {
  std::vector<PlannerParams> params;
  for (const bool indexed : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      params.push_back({seed, indexed});
    }
  }
  return params;
}

class PlannerFuzzCampaign : public ::testing::TestWithParam<PlannerParams> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(PlannerFuzzCampaign, BatchMirrorReplaysWithZeroFindings) {
  const PlannerParams& params = GetParam();
  FuzzGenOptions gen;
  gen.num_steps = 60;
  const FuzzCase c = GenerateFuzzCase(params.seed, gen);
  ReplayOptions opts;
  opts.planner_batch_mirror = true;
  opts.session.undo.indexed = params.indexed;
  const ReplayResult r = ReplayFuzzCase(c, opts);
  EXPECT_TRUE(r.ok) << "seed " << params.seed << " failed at step "
                    << r.failing_step << ": " << r.failure;
  EXPECT_GT(r.applied, 0) << "seed " << params.seed;
}

INSTANTIATE_TEST_SUITE_P(Tier1, PlannerFuzzCampaign,
                         ::testing::ValuesIn(MakePlannerParams()),
                         PlannerParamsName);

TEST(PlannerCorpus, EveryReproReplaysCleanUnderBatchMirror) {
  const std::filesystem::path dir(PIVOT_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  ReplayOptions opts;
  opts.planner_batch_mirror = true;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".fuzzcase") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    FuzzCase c;
    std::string error;
    ASSERT_TRUE(DeserializeFuzzCase(text.str(), &c, &error))
        << entry.path() << ": " << error;
    FaultInjector::Instance().Reset();
    const ReplayResult r = ReplayFuzzCase(c, opts);
    EXPECT_TRUE(r.ok) << entry.path() << " failed at step "
                      << r.failing_step << ": " << r.failure;
    ++replayed;
  }
  FaultInjector::Instance().Reset();
  EXPECT_GE(replayed, 16);
}

}  // namespace
}  // namespace pivot
