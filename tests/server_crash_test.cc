// The crash-consistency sweep for the multi-session server.
//
// Same discipline as tests/journal_crash_test.cc, one level up: a "crash"
// is an injected fault at a point of the server's commit path (server.*,
// and the persist.* points of the session WALs' journals) — tearing the
// per-session WAL append, between the append and the group-commit enqueue,
// as the worker takes a batch that is written but not synced, after the
// group sync but before the ack, mid-snapshot. For every point, and every
// countdown until the workload completes un-faulted, the sweep kills a
// two-session server mid-schedule, restarts over the same data directory,
// recovers both sessions and asserts each equals a reference that
// executed exactly its acknowledged prefix — or that prefix plus the one
// in-flight operation whose whole frame reached the session WAL but whose
// ack never got out. Anything else — a lost ack, a replayed rollback — is
// a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/wal.h"
#include "pivot/server/protocol.h"
#include "pivot/server/server.h"
#include "pivot/support/fault_injector.h"
#include "pivot/support/rng.h"

namespace pivot {
namespace {

// Two constant-foldable statements: the apply/undo schedule below always
// has the opportunity it asks for.
const char kSource[] =
    "y = 3 * 4\n"
    "z = 5 * 6\n"
    "write y\n"
    "write z\n";

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "pivot_server_crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

ServerOptions Opts(const std::string& dir, bool evict = false) {
  ServerOptions o;
  o.data_dir = dir;
  o.snapshot_interval = 2;  // cross the snapshot fault points mid-schedule
  if (evict) {
    // One resident session max: with the two-session interleaved schedule,
    // nearly every request passivates the other session and reactivates
    // its own, so the eviction points are crossed continuously.
    o.lifecycle.max_resident = 1;
  }
  return o;
}

// Per-session step list. Every step commits exactly one session-WAL frame
// (genesis or txn), which is what makes the durable-prefix accounting
// exact. "apply" always folds the first CFO opportunity, "undolast"
// reverts the most recent one: the sequence is deterministic, so the same
// prefix replayed into a fresh Session is the reference state.
const std::vector<std::string>& SessionSteps() {
  static const std::vector<std::string> steps = {
      "open", "apply", "apply", "undolast", "apply", "undolast"};
  return steps;
}

std::string SessionName(int i) { return "s" + std::to_string(i); }

Request RequestFor(int session, const std::string& what) {
  Request req;
  req.session = SessionName(session);
  if (what == "open") {
    req.op = ServerOp::kOpen;
    req.source = kSource;
  } else if (what == "apply") {
    req.op = ServerOp::kApply;
    req.kind = TransformKindIndex(TransformKind::kCfo);
    req.op_index = 0;
  } else {
    req.op = ServerOp::kUndoLast;
  }
  return req;
}

void ReplayStep(Session& s, const std::string& what) {
  if (what == "apply") {
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  } else if (what == "undolast") {
    s.UndoLast();
  }
}

// A reference session that executed the first `steps` entries of the
// per-session list (entry 0 is the open itself). Requires steps >= 1.
std::unique_ptr<Session> Reference(std::size_t steps) {
  auto ref = std::make_unique<Session>(Parse(kSource));
  for (std::size_t i = 1; i < steps; ++i) {
    ReplayStep(*ref, SessionSteps()[i]);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return ref;
}

// The interleaved schedule: (session, step) pairs, two sessions in
// lockstep, so a crash in one session's commit finds the other mid-history
// too.
std::vector<std::pair<int, std::string>> InterleavedSchedule() {
  std::vector<std::pair<int, std::string>> schedule;
  for (const std::string& what : SessionSteps()) {
    schedule.emplace_back(0, what);
    schedule.emplace_back(1, what);
  }
  return schedule;
}

// Recovers `session` on a restarted server and checks it against the
// acked / acked+1 candidates. `may_be_in_flight` is true for the session
// whose operation the crash interrupted.
void CheckRecoveredSession(PivotServer& server, int session,
                           std::size_t acked, bool may_be_in_flight,
                           const std::string& label) {
  Request recover;
  recover.op = ServerOp::kRecover;
  recover.session = SessionName(session);
  const Response rec = server.Execute(recover);
  if (rec.status != StatusCode::kOk) {
    // Only acceptable when not even the open was acknowledged (a torn
    // genesis is an unusable journal — there is nothing to recover).
    EXPECT_EQ(acked, 0u) << label << ": recovery failed after " << acked
                         << " acks: " << rec.error;
    return;
  }

  Request source_req;
  source_req.op = ServerOp::kSource;
  source_req.session = SessionName(session);
  Request history_req = source_req;
  history_req.op = ServerOp::kHistory;
  const std::string source = server.Execute(source_req).text;
  const std::string history = server.Execute(history_req).text;

  std::vector<std::size_t> candidates = {acked};
  if (may_be_in_flight && acked + 1 <= SessionSteps().size()) {
    candidates.push_back(acked + 1);
  }
  std::size_t matched = 0;
  for (const std::size_t k : candidates) {
    if (k == 0) continue;  // k == 0 means "unrecoverable", handled above
    const std::unique_ptr<Session> ref = Reference(k);
    if (::testing::Test::HasFatalFailure()) return;
    if (source == ref->Source() && history == ref->HistoryToString()) {
      matched = k;
      break;
    }
  }
  ASSERT_NE(matched, 0u)
      << label << ": recovered state of " << SessionName(session)
      << " matches neither the acked prefix (" << acked
      << (may_be_in_flight ? ") nor acked+1" : ")") << "\nsource:\n"
      << source;

  // The recovered session must share the reference's future, not just its
  // present: take the schedule's next step on both sides.
  if (matched < SessionSteps().size()) {
    const std::string& next = SessionSteps()[matched];
    const std::unique_ptr<Session> ref = Reference(matched);
    ReplayStep(*ref, next);
    if (::testing::Test::HasFatalFailure()) return;
    const Response stepped = server.Execute(RequestFor(session, next));
    ASSERT_EQ(stepped.status, StatusCode::kOk) << label << " (next step)";
    EXPECT_EQ(server.Execute(source_req).text, ref->Source())
        << label << " (next step)";
    EXPECT_EQ(server.Execute(history_req).text, ref->HistoryToString())
        << label << " (next step)";
  }
}

// Crashes the schedule at crossing `countdown` of `point`, restarts the
// server over the same directory, recovers both sessions and checks them.
// Returns false when the fault never fired (the sweep is exhausted).
bool CrashRecoverCheck(const std::string& point, int countdown,
                       bool evict = false) {
  const std::string label = point + " #" + std::to_string(countdown);
  // Per-point directory: ctest runs the sweep's points as parallel
  // processes, and a shared directory races on remove_all.
  std::string tag = point;
  std::replace(tag.begin(), tag.end(), '.', '_');
  const std::string dir = FreshDir("sweep_" + tag);
  const auto schedule = InterleavedSchedule();

  FaultInjector& injector = FaultInjector::Instance();
  std::array<std::size_t, 2> acked = {0, 0};
  std::size_t steps_done = 0;
  bool crashed = false;
  {
    PivotServer server(Opts(dir, evict));
    injector.Arm(point, countdown);
    try {
      for (const auto& [session, what] : schedule) {
        const Response resp = server.Execute(RequestFor(session, what));
        if (resp.status != StatusCode::kOk) {
          ADD_FAILURE() << label << ": un-faulted step " << steps_done
                        << " failed: " << resp.error;
          injector.Disarm();
          return false;
        }
        ++acked[static_cast<std::size_t>(session)];
        ++steps_done;
      }
    } catch (const FaultInjectedError&) {
      crashed = true;
    }
    injector.Disarm();
  }  // the dying process: server, sessions and group commit destroyed
  if (!crashed) return false;

  // The interrupted operation belongs to the first un-acked schedule step.
  const int crash_session = schedule[steps_done].first;

  PivotServer server(Opts(dir, evict));
  for (int session = 0; session < 2; ++session) {
    CheckRecoveredSession(server, session,
                          acked[static_cast<std::size_t>(session)],
                          session == crash_session, label);
    if (::testing::Test::HasFatalFailure()) return true;
  }
  return true;
}

// One swept crash position: the name its test case carries and the fault
// points armed there, each at every countdown. A session's WAL is written
// by persist's DurableJournal, so positions on it arm persist.* points;
// their cases keep the names of the server-only points they replaced
// (server.swal.* for the session WAL, server.evict.* for passivation), so
// each position keeps being reported under one name.
struct Position {
  std::string name;
  std::vector<std::string> points;
};

// A position whose name is its one point.
Position At(const std::string& point) {
  std::string name = point;
  std::replace(name.begin(), name.end(), '.', '_');
  return {name, {point}};
}

std::string PositionName(const ::testing::TestParamInfo<Position>& info) {
  return info.param.name;
}

// How gtest (and so ctest's test list) shows a case's parameter: the
// points it arms.
void PrintTo(const Position& position, std::ostream* os) {
  for (std::size_t i = 0; i < position.points.size(); ++i) {
    *os << (i == 0 ? "" : " ") << '"' << position.points[i] << '"';
  }
}

// Sweeps every point of the position with CrashRecoverCheck's options.
void SweepPosition(const Position& position, bool evict) {
  for (const std::string& point : position.points) {
    int crossings = 0;
    for (int countdown = 1; countdown < 200; ++countdown) {
      if (!CrashRecoverCheck(point, countdown, evict)) break;
      ++crossings;
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(crossings, 0) << "fault point " << point
                            << " was never crossed by the schedule";
  }
}

class ServerCrashSweep : public ::testing::TestWithParam<Position> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(ServerCrashSweep, EveryCrossingRecoversTheAckedPrefix) {
  SweepPosition(GetParam(), /*evict=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    ServerPoints, ServerCrashSweep,
    ::testing::Values(
        // Tearing the per-session WAL append (before the group enqueue).
        Position{"server_swal_genesis_header_post",
                 {"persist.genesis.header.post"}},
        Position{"server_swal_genesis_mid", {"persist.genesis.mid"}},
        Position{"server_swal_genesis_post", {"persist.genesis.post"}},
        Position{"server_swal_txn_header_post", {"persist.txn.header.post"}},
        Position{"server_swal_txn_mid", {"persist.txn.mid"}},
        Position{"server_swal_txn_post", {"persist.txn.post"}},
        // A new session WAL whose name is durable but which holds no
        // genesis yet.
        At("persist.create.dir.synced"),
        // Before the session append: the genesis and txn frame encodes.
        At("persist.genesis.pre"), At("persist.txn.pre"),
        // Between the session append and the group commit.
        At("server.commit.enqueue.pre"),
        // Inside the group-commit worker: a batch written but not synced,
        // after the group sync, before the ack.
        At("server.batch.pre"), At("server.group.sync.post"),
        At("server.ack.pre"),
        // Acked, before the post-commit snapshot decision.
        At("persist.commit.ack.pre"),
        // Post-ack snapshot frames on the session WAL.
        At("persist.snapshot.pre"),
        Position{"server_swal_snapshot_header_post",
                 {"persist.snapshot.header.post"}},
        Position{"server_swal_snapshot_mid", {"persist.snapshot.mid"}},
        Position{"server_swal_snapshot_post", {"persist.snapshot.post"}}),
    PositionName);

// The eviction sweep: max_resident=1 forces the two-session schedule to
// passivate one session and reactivate the other on nearly every request,
// so the server.evict.* points — the final durable snapshot, the window
// between that fsync and the stub publication, the passivated-WAL rewrite,
// the reactivation replay — are crossed continuously. The oracle is the
// same acked / acked+1 contract as the main sweep.
class EvictionCrashSweep : public ::testing::TestWithParam<Position> {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_P(EvictionCrashSweep, EveryCrossingKeepsEveryAckedCommit) {
  SweepPosition(GetParam(), /*evict=*/true);
}

// The passivation snapshot crosses persist.snapshot.* like the interval
// snapshots (which this schedule also writes, so those positions are
// swept too); only the passivation one is fsynced. The WAL rewrite after
// release crosses persist.compact.*: it copies the genesis and the final
// snapshot, which is always the last frame, so no txn frame is copied.
INSTANTIATE_TEST_SUITE_P(
    EvictionPoints, EvictionCrashSweep,
    ::testing::Values(
        At("server.evict.pre"),
        Position{"server_evict_snapshot_header_post",
                 {"persist.snapshot.header.post"}},
        Position{"server_evict_snapshot_mid", {"persist.snapshot.mid"}},
        Position{"server_evict_snapshot_post", {"persist.snapshot.post"}},
        Position{"server_evict_snapshot_fsync_post",
                 {"persist.snapshot.fsync.post"}},
        At("server.evict.release.pre"),
        Position{"server_evict_compact_pre", {"persist.compact.pre"}},
        Position{"server_evict_compact_frame_header_post",
                 {"persist.compact.genesis.header.post",
                  "persist.compact.snapshot.header.post"}},
        Position{"server_evict_compact_frame_mid",
                 {"persist.compact.genesis.mid",
                  "persist.compact.snapshot.mid"}},
        Position{"server_evict_compact_frame_post",
                 {"persist.compact.genesis.post",
                  "persist.compact.snapshot.post"}},
        Position{"server_evict_compact_tmp_synced",
                 {"persist.compact.tmp.synced"}},
        Position{"server_evict_compact_rename_pre",
                 {"persist.compact.rename.pre"}},
        Position{"server_evict_compact_rename_post",
                 {"persist.compact.rename.post"}},
        At("server.evict.stub.post"), At("server.evict.reactivate.pre"),
        At("server.evict.reactivate.post")),
    PositionName);

class ServerCrash : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// A txn frame written to its session WAL but never synced: the crash
// hits the group-commit worker as it takes the batch (server.batch.pre),
// so no client saw the commit acknowledged. The harness kills the
// process, not the page cache, so the whole frame is still in the file:
// recovery keeps it — acked+1, the one in-flight operation the oracle
// allows — and the session goes on committing on top of it, across
// another restart.
TEST_F(ServerCrash, AFrameWrittenButNeverSyncedRecoversAsAckedPlusOne) {
  const std::string dir = FreshDir("unsynced");
  {
    PivotServer server(Opts(dir));
    ASSERT_EQ(server.Execute(RequestFor(0, "open")).status, StatusCode::kOk);
    ASSERT_EQ(server.Execute(RequestFor(0, "apply")).status, StatusCode::kOk);
    FaultInjector::Instance().Arm("server.batch.pre", 1);
    EXPECT_THROW(server.Execute(RequestFor(0, "apply")), FaultInjectedError);
    FaultInjector::Instance().Reset();
    EXPECT_EQ(server.mode(), ServerMode::kCrashed);
  }

  Request recover;
  recover.op = ServerOp::kRecover;
  recover.session = SessionName(0);
  Request source_req;
  source_req.op = ServerOp::kSource;
  source_req.session = SessionName(0);
  Request history_req = source_req;
  history_req.op = ServerOp::kHistory;
  {
    PivotServer server(Opts(dir));
    const Response rec = server.Execute(recover);
    ASSERT_EQ(rec.status, StatusCode::kOk) << rec.error;
    EXPECT_EQ(rec.value, 2u);  // the acked apply and the unsynced one
    const std::unique_ptr<Session> plus_one = Reference(3);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(server.Execute(source_req).text, plus_one->Source());
    EXPECT_EQ(server.Execute(history_req).text, plus_one->HistoryToString());

    ASSERT_EQ(server.Execute(RequestFor(0, "undolast")).status,
              StatusCode::kOk);
    server.Drain();
  }

  PivotServer server(Opts(dir));
  ASSERT_EQ(server.Execute(recover).status, StatusCode::kOk);
  const std::unique_ptr<Session> ref = Reference(4);  // ... + undolast
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(server.Execute(source_req).text, ref->Source());
  EXPECT_EQ(server.Execute(history_req).text, ref->HistoryToString());
}

// The fault-point registry, checked from the crossing side: observe one
// server schedule that touches every stage of a session's durable life —
// open, commits across a snapshot, passivation with the WAL rewrite,
// reactivation, restart + recover — plus the standalone journal paths the
// server never takes (per-frame fsync, compaction with a tail, recovery of
// a torn tail). Every point crossed must be registered, and every registered
// server.* / persist.* point must be crossed: a point no schedule reaches
// is dead and goes from the registry.
TEST_F(ServerCrash, EveryRegisteredServerAndPersistPointIsCrossed) {
  const std::string dir = FreshDir("observe");
  FaultInjector& injector = FaultInjector::Instance();
  injector.StartObserving();
  {
    PivotServer server(Opts(dir, /*evict=*/true));
    ASSERT_EQ(server.Execute(RequestFor(0, "open")).status, StatusCode::kOk);
    for (const char* step : {"apply", "apply", "undolast"}) {
      ASSERT_EQ(server.Execute(RequestFor(0, step)).status, StatusCode::kOk);
    }
    // Opening s1 passivates s0 (snapshot, release, WAL rewrite); the next
    // s0 request reactivates it and passivates s1.
    ASSERT_EQ(server.Execute(RequestFor(1, "open")).status, StatusCode::kOk);
    ASSERT_EQ(server.Execute(RequestFor(0, "apply")).status, StatusCode::kOk);
    ASSERT_EQ(server.Execute(RequestFor(0, "undolast")).status,
              StatusCode::kOk);
    server.Drain();
  }
  {
    PivotServer server(Opts(dir));
    Request recover;
    recover.op = ServerOp::kRecover;
    recover.session = SessionName(0);
    const Response rec = server.Execute(recover);
    ASSERT_EQ(rec.status, StatusCode::kOk) << rec.error;
    EXPECT_EQ(server.Execute(RequestFor(0, "apply")).status, StatusCode::kOk);
  }

  // A standalone journal: every frame fsynced, a compaction that copies a
  // txn behind its snapshot, and recovery of a torn tail.
  const std::string path = dir + "/standalone.wal";
  {
    Session s(Parse(kSource));
    PersistOptions opts;
    opts.snapshot_interval = 2;
    auto wal = DurableJournal::Create(s, path, opts);
    for (const char* step : {"apply", "apply", "undolast"}) {
      ReplayStep(s, step);
    }
    wal->Compact();
  }
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  EXPECT_TRUE(Session::Recover(path).report.truncated);
  injector.StopObserving();

  const std::vector<std::string>& known = FaultInjector::KnownPoints();
  const std::vector<std::string>& observed = injector.observed_points();
  for (const std::string& point : observed) {
    EXPECT_NE(std::find(known.begin(), known.end(), point), known.end())
        << "unregistered fault point crossed: " << point;
  }
  for (const std::string& point : known) {
    if (point.rfind("server.", 0) != 0 && point.rfind("persist.", 0) != 0) {
      continue;
    }
    EXPECT_NE(std::find(observed.begin(), observed.end(), point),
              observed.end())
        << "registered fault point no schedule crosses: " << point;
  }
}

// The probabilistic soak ci/run_server_soak.sh drives: several sessions
// committing from concurrent threads, a fault armed at a random crossing,
// then restart + recovery, asserting per session that no acknowledged
// commit was lost and at most the single in-flight operation gained.
// Seeded from PIVOT_FUZZ_SEED, rounds from PIVOT_SOAK_ROUNDS.
TEST_F(ServerCrash, ConcurrentCrashSoakLosesNoAckedCommit) {
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("PIVOT_FUZZ_SEED")) {
    seed = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  int rounds = 4;
  if (const char* env = std::getenv("PIVOT_SOAK_ROUNDS")) {
    rounds = std::atoi(env);
  }
  Rng rng(seed ^ 0x5e7e5e7eULL);

  constexpr int kThreads = 4;
  constexpr int kStepsPerThread = 24;
  for (int round = 0; round < rounds; ++round) {
    const std::string label = "round " + std::to_string(round);
    const std::string dir = FreshDir("soak");
    std::array<std::size_t, kThreads> acked{};
    bool crashed = false;
    {
      PivotServer server(Opts(dir));
      for (int i = 0; i < kThreads; ++i) {
        ASSERT_EQ(server.Execute(RequestFor(i, "open")).status,
                  StatusCode::kOk)
            << label;
      }
      // Arm after the opens so every session is recoverable; a countdown
      // past the workload's crossings simply means a crash-free round.
      FaultInjector::Instance().ArmNthCrossing(
          1 + static_cast<int>(rng.Next() % 600));

      std::vector<std::thread> threads;
      for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&server, &acked, i] {
          // Deterministic per-session sequence (odd acks are applies, even
          // acks undo them), so the acked prefix is replayable.
          for (int step = 0; step < kStepsPerThread; ++step) {
            const bool undo = acked[static_cast<std::size_t>(i)] % 2 == 1;
            try {
              const Response r =
                  server.Execute(RequestFor(i, undo ? "undolast" : "apply"));
              if (r.status == StatusCode::kOk) {
                ++acked[static_cast<std::size_t>(i)];
              } else if (!r.retryable) {
                break;  // crashed / degraded: the round is over
              }
            } catch (...) {
              break;  // the injected crash (or its fallout)
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      FaultInjector::Instance().Disarm();
      crashed = server.mode() == ServerMode::kCrashed;
      if (!crashed) server.Drain();
    }

    PivotServer server(Opts(dir));
    for (int i = 0; i < kThreads; ++i) {
      Request recover;
      recover.op = ServerOp::kRecover;
      recover.session = SessionName(i);
      const Response rec = server.Execute(recover);
      ASSERT_EQ(rec.status, StatusCode::kOk)
          << label << " " << SessionName(i) << ": " << rec.error;

      Request source_req;
      source_req.op = ServerOp::kSource;
      source_req.session = SessionName(i);
      const std::string source = server.Execute(source_req).text;

      // Replay candidates: the acked ops, or acked+1 if one was in flight.
      const std::size_t n = acked[static_cast<std::size_t>(i)];
      bool matched = false;
      for (std::size_t k = n; k <= n + (crashed ? 1 : 0); ++k) {
        Session ref{Parse(kSource)};
        for (std::size_t step = 0; step < k; ++step) {
          if (step % 2 == 0) {
            ASSERT_TRUE(ref.ApplyFirst(TransformKind::kCfo).has_value());
          } else {
            ref.UndoLast();
          }
        }
        if (source == ref.Source()) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched)
          << label << ": " << SessionName(i) << " acked " << n
          << " ops but recovered to neither the acked nor acked+1 state";
    }
  }
}

}  // namespace
}  // namespace pivot
