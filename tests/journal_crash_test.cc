// The crash-consistency sweep for the durable write-ahead journal.
//
// A "crash" here is an injected fault at one of the persist.* fault points
// — between the write() calls of a frame (torn frame), after the fsync but
// before the in-memory commit is acknowledged, before the post-ack
// snapshot, mid-snapshot. For every such point, and for every countdown
// until the workload completes un-faulted, the sweep kills a journaled
// session mid-schedule, recovers the file, and asserts that the recovered
// session is oracle-equivalent to a reference session that executed
// exactly the durable prefix of the schedule:
//
//   * pre-write and torn-frame crashes    => the acknowledged operations;
//   * post-fsync / post-ack / snapshot    => the acknowledged operations
//     crashes                                plus the one whose frame was
//                                            already durable.
//
// Equivalence is checked on source, rendered history, rendered
// annotations, the semantics oracle, the validator — and on the future:
// both sessions take the schedule's next step and must stay identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/oracle/fuzzcase.h"
#include "pivot/oracle/oracle.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/wal.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "pivot_crash_" + name + ".wal";
}

class JournalCrash : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// The mixed schedule: every step commits exactly one transaction (that is
// what makes the durable-prefix accounting exact), and together the steps
// cover every TxnOp the wire format can carry: applies of three kinds,
// all four structured edits, single undo, batch undo and the unsafe-removal
// sweep.
const char kSource[] =
    "c = 1\n"
    "x = c\n"
    "x = 2\n"
    "y = 3 * 4\n"
    "write x\n"
    "write y\n"
    "write c\n";

using Step = std::function<void(Session&)>;

std::vector<Step> MixedSchedule() {
  return {
      // t1: fold y = 3 * 4.
      [](Session& s) { ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo)); },
      // t2: propagate c = 1 into x = c.
      [](Session& s) { ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp)); },
      // t3: the propagated x = 1 is now dead (overwritten by x = 2).
      [](Session& s) { ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce)); },
      // t4: edit-add a statement at the top.
      [](Session& s) {
        s.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr,
                           BodyKind::kMain, 0);
      },
      // undo the fold (independent of the x/c chain).
      [](Session& s) { s.Undo(1); },
      // t5: re-fold the restored y = 3 * 4.
      [](Session& s) { ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo)); },
      // t6: edit-replace the added statement's expression.
      [](Session& s) {
        s.editor().ReplaceExpr(*s.program().top()[0]->rhs, MakeIntConst(8));
      },
      // batch-undo the re-fold.
      [](Session& s) { s.UndoSet({5}); },
      // no unsafe transformations: still one committed (empty) sweep.
      [](Session& s) { s.RemoveUnsafeTransforms(); },
      // t7: edit-delete the added statement (its expr edit cascades).
      [](Session& s) { s.editor().DeleteStmt(*s.program().top()[0]); },
      // t8: edit-move the last top-level statement to the front.
      [](Session& s) {
        Stmt& last = *s.program().top().back();
        s.editor().MoveStmt(last, nullptr, BodyKind::kMain, 0);
      },
  };
}

// How many schedule steps the recovered session must reflect when the
// crash fired at `point` after `acked` steps had completed: a crash before
// any frame byte reaches the file, or one that tears the frame, loses the
// in-flight operation; a crash after the frame's fsync keeps it.
std::size_t DurableSteps(const std::string& point, std::size_t acked,
                         std::size_t total) {
  if (point == "persist.txn.pre" || point == "persist.txn.header.post" ||
      point == "persist.txn.mid") {
    return acked;  // nothing or a torn frame reached the file
  }
  // From .post on the whole frame is in the file (".post" is after the
  // last payload write; this harness kills the process, not the page
  // cache, so an unsynced complete frame survives), and commit.ack.pre /
  // snapshot points fire after the txn frame is durable.
  return std::min(acked + 1, total);
}

void ExpectEquivalent(Session& a, Session& b, const std::string& label) {
  EXPECT_EQ(a.Source(), b.Source()) << label;
  EXPECT_EQ(a.HistoryToString(), b.HistoryToString()) << label;
  EXPECT_EQ(a.AnnotationsToString(), b.AnnotationsToString()) << label;
  EXPECT_EQ(a.history().next_stamp(), b.history().next_stamp()) << label;
  EXPECT_EQ(a.journal().records().size(), b.journal().records().size())
      << label;
}

// Crashes the schedule at crossing `countdown` of `point`, recovers, and
// checks the recovered session against a reference that ran the durable
// prefix. Returns false when the fault never fired (the sweep for this
// point is exhausted). `opts` lets the compaction sweep run the same
// schedule with in-place journal rewrites enabled; `no_hybrid` addition-
// ally asserts the journal scans clean end to end — compaction's crash
// points all fire with every frame durable, so a torn or part-rewritten
// file would be a broken rename protocol.
bool CrashRecoverCheck(const std::string& point, int countdown,
                       const PersistOptions& opts, bool no_hybrid) {
  const std::string label = point + " #" + std::to_string(countdown);
  // Per-point journal: ctest runs sweep points as parallel processes, so
  // a shared path would race.
  std::string tag = point;
  std::replace(tag.begin(), tag.end(), '.', '_');
  const std::string path = TmpPath("sweep_" + tag);
  const std::vector<Step> schedule = MixedSchedule();

  FaultInjector& injector = FaultInjector::Instance();
  std::size_t acked = 0;
  bool crashed = false;
  {
    Session s(Parse(kSource));
    std::unique_ptr<DurableJournal> wal;
    try {
      wal = DurableJournal::Create(s, path, opts);
      injector.Arm(point, countdown);
      for (const Step& step : schedule) {
        step(s);
        if (::testing::Test::HasFatalFailure()) return false;
        ++acked;
      }
    } catch (const FaultInjectedError&) {
      crashed = true;
    }
    injector.Disarm();
  }  // the dying process: session and journal destroyed
  if (!crashed) return false;

  if (no_hybrid) {
    const WalScanResult scan = ScanWal(path);
    EXPECT_TRUE(scan.header_ok) << label;
    EXPECT_TRUE(scan.truncation_reason.empty())
        << label << ": the journal is neither the old nor the new file ("
        << scan.truncation_reason << ")";
  }

  // Reference: a fresh session that executed exactly the durable prefix.
  const std::size_t durable = DurableSteps(point, acked, schedule.size());
  Session reference(Parse(kSource));
  for (std::size_t i = 0; i < durable; ++i) schedule[i](reference);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.validator_ok) << label << "\n" << r.report.ToString();
  ExpectEquivalent(reference, *r.session, label);
  if (no_hybrid) {
    // Recovery discards the tmp a crash-before-rename left behind.
    EXPECT_FALSE(std::filesystem::exists(path + ".compact")) << label;
  }

  const SemanticsOracle oracle(reference.program(), DefaultOracleInputs());
  EXPECT_EQ(oracle.Check(r.session->program()), "") << label;

  // The recovered session must share the reference's future, not just its
  // present (id counters, payload trees, undo machinery all line up).
  if (durable < schedule.size()) {
    schedule[durable](reference);
    schedule[durable](*r.session);
    ExpectEquivalent(reference, *r.session, label + " (next step)");
  }
  return true;
}

bool CrashRecoverCheck(const std::string& point, int countdown) {
  PersistOptions opts;
  opts.snapshot_interval = 3;  // exercise snapshot frames mid-schedule
  return CrashRecoverCheck(point, countdown, opts, /*no_hybrid=*/false);
}

// The compaction sweep's options: every snapshot (@3, @6, @9) rewrites the
// journal in place.
PersistOptions CompactingOpts() {
  PersistOptions opts;
  opts.snapshot_interval = 3;
  opts.compact = true;
  return opts;
}

class CrashSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(CrashSweep, EveryCrossingRecoversToTheDurablePrefix) {
  const std::string point = GetParam();
  int crossings = 0;
  for (int countdown = 1; countdown < 200; ++countdown) {
    if (!CrashRecoverCheck(point, countdown)) break;
    ++crossings;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(crossings, 0) << "fault point " << point
                          << " was never crossed by the schedule";
}

INSTANTIATE_TEST_SUITE_P(
    PersistPoints, CrashSweep,
    ::testing::Values("persist.txn.pre", "persist.txn.header.post",
                      "persist.txn.mid", "persist.txn.post",
                      "persist.txn.fsync.post", "persist.commit.ack.pre",
                      "persist.snapshot.pre", "persist.snapshot.header.post",
                      "persist.snapshot.mid", "persist.snapshot.post",
                      "persist.snapshot.fsync.post"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// The automatic-compaction sweep: the same schedule with in-place journal
// rewrites after every snapshot. A crash at any compaction point must
// leave either the complete old journal or the complete new one (the
// rename is the only commit point), and recovery must land on the exact
// durable prefix either way. The compaction fires post-ack with the txn
// frame already fsynced, so the durable step count is acked+1 — the same
// accounting as the snapshot points.
class CompactAutoCrashSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(CompactAutoCrashSweep, EveryCrossingLeavesOldOrNewNeverHybrid) {
  const std::string point = GetParam();
  int crossings = 0;
  for (int countdown = 1; countdown < 200; ++countdown) {
    if (!CrashRecoverCheck(point, countdown, CompactingOpts(),
                           /*no_hybrid=*/true)) {
      break;
    }
    ++crossings;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(crossings, 0) << "fault point " << point
                          << " was never crossed by the schedule";
}

// Automatic compaction anchors on a just-written snapshot, which is
// always the last frame — so the rewrite never copies txn frames and the
// persist.compact.txn.* points cannot fire here. They are swept by the
// explicit-Compact test below, whose anchor has a tail behind it.
INSTANTIATE_TEST_SUITE_P(
    CompactionPoints, CompactAutoCrashSweep,
    ::testing::Values("persist.compact.pre",
                      "persist.compact.genesis.header.post",
                      "persist.compact.genesis.mid",
                      "persist.compact.genesis.post",
                      "persist.compact.snapshot.header.post",
                      "persist.compact.snapshot.mid",
                      "persist.compact.snapshot.post",
                      "persist.compact.tmp.synced",
                      "persist.compact.rename.pre",
                      "persist.compact.rename.post"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// Crashes an explicit DurableJournal::Compact at crossing `countdown` of
// `point`. The journal holds txn frames behind the snapshot anchor
// (snapshots @3/@6/@9 + txns 10-11), so the rewrite copies and rebases
// frames of every kind. Whatever the crash point, the file must scan clean
// and recover the full schedule.
bool ExplicitCompactCrashCheck(const std::string& point, int countdown) {
  const std::string label = point + " #" + std::to_string(countdown);
  std::string tag = point;
  std::replace(tag.begin(), tag.end(), '.', '_');
  const std::string path = TmpPath("explicit_compact_" + tag);
  const std::vector<Step> schedule = MixedSchedule();

  FaultInjector& injector = FaultInjector::Instance();
  bool crashed = false;
  Session s(Parse(kSource));
  {
    PersistOptions opts;
    opts.snapshot_interval = 3;  // snapshots @3, @6, @9: the anchor is @9
    auto wal = DurableJournal::Create(s, path, opts);
    for (const Step& step : schedule) {
      step(s);
      if (::testing::Test::HasFatalFailure()) return false;
    }
    injector.Arm(point, countdown);
    try {
      wal->Compact();
    } catch (const FaultInjectedError&) {
      crashed = true;
    }
    injector.Disarm();
  }
  if (!crashed) return false;

  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok) << label;
  EXPECT_TRUE(scan.truncation_reason.empty())
      << label << ": hybrid journal (" << scan.truncation_reason << ")";

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.validator_ok) << label << "\n" << r.report.ToString();
  ExpectEquivalent(s, *r.session, label);
  EXPECT_FALSE(std::filesystem::exists(path + ".compact")) << label;
  return true;
}

TEST_P(CompactAutoCrashSweep, ExplicitCompactWithATailIsAllOrNothing) {
  const std::string point = GetParam();
  int crossings = 0;
  for (int countdown = 1; countdown < 200; ++countdown) {
    if (!ExplicitCompactCrashCheck(point, countdown)) break;
    ++crossings;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(crossings, 0) << "fault point " << point
                          << " was never crossed by an explicit Compact";
}

class CompactTxnCrashSweep : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(CompactTxnCrashSweep, TornCopiedTxnFramesAreAllOrNothing) {
  const std::string point = GetParam();
  int crossings = 0;
  for (int countdown = 1; countdown < 200; ++countdown) {
    if (!ExplicitCompactCrashCheck(point, countdown)) break;
    ++crossings;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(crossings, 0) << "fault point " << point
                          << " was never crossed by an explicit Compact";
}

INSTANTIATE_TEST_SUITE_P(
    CompactionTxnPoints, CompactTxnCrashSweep,
    ::testing::Values("persist.compact.txn.header.post",
                      "persist.compact.txn.mid", "persist.compact.txn.post"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

// A crash while *recovery itself* truncates the tail must leave the file
// recoverable: the next recovery attempt finds the same (or an already
// truncated) prefix and succeeds.
TEST_F(JournalCrash, CrashDuringRecoveryTruncationIsRecoverable) {
  const std::string path = TmpPath("recover_crash");
  const std::vector<Step> schedule = MixedSchedule();
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    FaultInjector::Instance().Arm("persist.txn.mid", 4);  // tear step 4
    std::size_t acked = 0;
    try {
      for (const Step& step : schedule) {
        step(s);
        ++acked;
      }
    } catch (const FaultInjectedError&) {
    }
    FaultInjector::Instance().Reset();
    ASSERT_EQ(acked, 3u);
  }

  FaultInjector::Instance().Arm("persist.recover.truncate.pre", 1);
  EXPECT_THROW(Session::Recover(path), FaultInjectedError);
  FaultInjector::Instance().Reset();

  Session reference(Parse(kSource));
  for (std::size_t i = 0; i < 3; ++i) schedule[i](reference);
  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(reference, *r.session, "recovery after recovery crash");
}

// Crashes during journal creation: a file without a whole genesis frame
// (the crash came right after its directory entry was synced, or tore the
// frame) is an unusable journal (there is nothing to recover), a durable
// one is an empty session.
TEST_F(JournalCrash, CrashDuringGenesisWrite) {
  for (const char* point :
       {"persist.create.dir.synced", "persist.genesis.pre",
        "persist.genesis.header.post", "persist.genesis.mid"}) {
    const std::string path = TmpPath("genesis");
    Session s(Parse(kSource));
    FaultInjector::Instance().Arm(point, 1);
    EXPECT_THROW(DurableJournal::Create(s, path), FaultInjectedError)
        << point;
    FaultInjector::Instance().Reset();
    EXPECT_THROW(Session::Recover(path), ProgramError) << point;
  }

  // Once the frame is fully written (.post / .fsync.post) the genesis is
  // in the file: recovery yields the pristine session even though Create
  // never returned.
  for (const char* point :
       {"persist.genesis.post", "persist.genesis.fsync.post"}) {
    const std::string path = TmpPath("genesis_durable");
    Session s(Parse(kSource));
    FaultInjector::Instance().Arm(point, 1);
    EXPECT_THROW(DurableJournal::Create(s, path), FaultInjectedError)
        << point;
    FaultInjector::Instance().Reset();
    RecoverResult r = Session::Recover(path);
    EXPECT_TRUE(r.report.validator_ok) << point;
    EXPECT_EQ(r.report.txns_replayed, 0u) << point;
    EXPECT_EQ(r.session->Source(), s.Source()) << point;
  }
}

// Generated fuzz schedules driven through a journaled session: whatever
// state a randomized apply/undo workload reaches, recovery reproduces it.
TEST_F(JournalCrash, FuzzSchedulesSurviveRecovery) {
  for (const std::uint64_t seed : {3u, 11u, 27u}) {
    FuzzGenOptions gen;
    gen.num_steps = 24;
    gen.program_stmts = 24;
    gen.fault_fraction = 0.0;  // injector stays free for the journal
    const FuzzCase c = GenerateFuzzCase(seed, gen);

    const std::string path = TmpPath("fuzz" + std::to_string(seed));
    Session s(Parse(c.source));
    PersistOptions opts;
    opts.snapshot_interval = 5;
    auto wal = DurableJournal::Create(s, path, opts);
    for (const FuzzStep& step : c.steps) {
      if (step.kind == FuzzStep::Kind::kApply) {
        const auto found = s.FindOpportunities(step.transform);
        if (found.empty()) continue;
        s.Apply(
            found[static_cast<std::size_t>(step.op_index) % found.size()]);
      } else if (step.kind == FuzzStep::Kind::kUndo) {
        std::vector<OrderStamp> live;
        for (const TransformRecord& rec : s.history().records()) {
          if (!rec.undone) live.push_back(rec.stamp);
        }
        if (live.empty()) continue;
        const OrderStamp stamp =
            live[static_cast<std::size_t>(step.undo_index) % live.size()];
        if (!s.CanUndo(stamp)) continue;
        s.Undo(stamp);
      }
    }
    wal.reset();

    RecoverResult r = Session::Recover(path);
    EXPECT_TRUE(r.report.validator_ok) << "seed " << seed;
    ExpectEquivalent(s, *r.session, "fuzz seed " + std::to_string(seed));
    const SemanticsOracle oracle(s.program(), DefaultOracleInputs());
    EXPECT_EQ(oracle.Check(r.session->program()), "") << "seed " << seed;
  }
}

// Full unwind after recovery: undoing every live transformation of a
// recovered (transform-only) session restores the pristine program — the
// paper's restoration property survives a crash boundary.
TEST_F(JournalCrash, RecoveredSessionUnwindsToThePristineProgram) {
  const std::string path = TmpPath("unwind");
  const Program pristine = Parse(kSource);
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo));
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp));
    FaultInjector::Instance().Arm("persist.txn.mid", 1);
    EXPECT_THROW(s.ApplyFirst(TransformKind::kDce), FaultInjectedError);
    FaultInjector::Instance().Reset();
  }

  RecoverResult r = Session::Recover(path);
  ASSERT_TRUE(r.report.validator_ok);
  std::vector<OrderStamp> live;
  for (const TransformRecord& rec : r.session->history().records()) {
    if (!rec.undone) live.push_back(rec.stamp);
  }
  ASSERT_EQ(live.size(), 2u);
  r.session->UndoSet(live);

  const StructuralOracle oracle(pristine);
  EXPECT_EQ(oracle.CheckRestored(r.session->program()), "");
}

}  // namespace
}  // namespace pivot
