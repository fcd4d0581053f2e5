// Growth soak (ci/run_growth_soak.sh): drives journal compaction long
// enough for its byte bound to mean something, then a many-client server
// workload, and exits non-zero when a check fails.
//
// The live image of a long apply/undo session legitimately grows with
// its history (undo state IS state), so a journal cannot promise a
// constant size. What compaction promises — and what this soak asserts —
// is relative: the file tracks the live state instead of accumulating
// every frame ever written.
//
//   * Session phase: PIVOT_GROWTH_OPS (default 10000) alternating
//     apply/undo commits against one DurableJournal with snapshots,
//     compaction off vs on. The compacted journal's
//     PEAK must be >= 4x smaller than the uncompacted FINAL, and the
//     compacted journal must recover to the same source.
//
//   * Server phase: PIVOT_GROWTH_CLIENTS (default 64) threads, each
//     committing PIVOT_GROWTH_CLIENT_OPS (default 256) operations
//     against its own hosted session under group commit; a restart must
//     then recover every session.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/durable.h"
#include "pivot/server/protocol.h"
#include "pivot/server/server.h"
#include "pivot/support/argparse.h"
#include "pivot/transform/transform.h"

namespace pivot {
namespace {

// A malformed tuning knob must abort the soak loudly, not silently run
// the default (or zero) workload and "pass".
int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  int parsed = 0;
  if (!ParseIntFlag(name, value, 1, 100'000'000, &parsed)) std::exit(2);
  return parsed;
}

const char kSource[] =
    "y = 3 * 4\n"
    "z = 5 * 6\n"
    "write y\n"
    "write z\n";

// One op = one committed transaction: apply the first constant fold on
// even steps, undo it on odd steps. The program never runs dry.
bool Step(Session& s, int op) {
  if (op % 2 == 0) {
    return s.ApplyFirst(TransformKind::kCfo).has_value();
  }
  s.UndoLast();
  return true;
}

struct SessionRun {
  std::uint64_t peak = 0;
  std::uint64_t final_bytes = 0;
  std::uint64_t compactions = 0;
  std::string source;
  bool ok = false;
};

SessionRun RunSessionWorkload(const std::string& path, int ops,
                              bool compact) {
  SessionRun run;
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 64;
  opts.compact = compact;
  // A no-op ack: growth bounds, not fsync cost, are under test.
  auto wal = DurableJournal::Create(s, path, opts,
                                    [](FrameType, WalWriter&) {});
  for (int op = 0; op < ops; ++op) {
    if (!Step(s, op)) {
      std::fprintf(stderr, "session phase: no fold site at op %d\n", op);
      return run;
    }
    if (wal->journal_bytes() > run.peak) run.peak = wal->journal_bytes();
  }
  run.final_bytes = wal->journal_bytes();
  run.compactions = wal->compactions();
  run.source = s.Source();
  run.ok = true;
  return run;
}

bool SessionPhase(const std::string& dir) {
  const int ops = EnvInt("PIVOT_GROWTH_OPS", 10000);
  const SessionRun off =
      RunSessionWorkload(dir + "/plain.wal", ops, /*compact=*/false);
  const SessionRun on =
      RunSessionWorkload(dir + "/compacted.wal", ops, /*compact=*/true);
  if (!off.ok || !on.ok) return false;

  std::printf(
      "session phase: %d ops; uncompacted final %llu bytes; compacted "
      "peak %llu / final %llu bytes over %llu compactions\n",
      ops, static_cast<unsigned long long>(off.final_bytes),
      static_cast<unsigned long long>(on.peak),
      static_cast<unsigned long long>(on.final_bytes),
      static_cast<unsigned long long>(on.compactions));
  if (on.compactions == 0) {
    std::fprintf(stderr, "session phase: compaction never ran\n");
    return false;
  }
  if (on.peak * 4 > off.final_bytes) {
    std::fprintf(stderr,
                 "session phase: compacted peak is not >=4x below the "
                 "uncompacted journal\n");
    return false;
  }

  const RecoverResult r = Session::Recover(dir + "/compacted.wal");
  if (!r.report.validator_ok || !r.report.errors.empty()) {
    std::fprintf(stderr, "session phase: recovery not clean\n");
    return false;
  }
  if (r.session->Source() != on.source) {
    std::fprintf(stderr, "session phase: recovered source diverges\n");
    return false;
  }
  return true;
}

// Commits `ops` operations from each of `clients` threads, each against
// its own session, then drains. Returns false on any failed request.
bool RunServerWorkload(const std::string& dir, int clients, int ops) {
  ServerOptions options;
  options.data_dir = dir;
  options.max_inflight = clients + 16;
  options.commit.max_queue = 2 * clients + 16;

  std::atomic<bool> failed{false};
  PivotServer server(std::move(options));
  for (int i = 0; i < clients; ++i) {
    Request open;
    open.op = ServerOp::kOpen;
    open.session = "s" + std::to_string(i);
    open.source = kSource;
    const Response resp = server.Execute(open);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "server phase: open failed: %s\n",
                   resp.error.c_str());
      return false;
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&server, &failed, i, ops] {
      const std::string name = "s" + std::to_string(i);
      for (int op = 0; op < ops; ++op) {
        Request req;
        req.session = name;
        if (op % 2 == 0) {
          req.op = ServerOp::kApply;
          req.kind = TransformKindIndex(TransformKind::kCfo);
          req.op_index = 0;
        } else {
          req.op = ServerOp::kUndoLast;
        }
        const Response resp = server.Execute(req);
        if (resp.status != StatusCode::kOk) {
          std::fprintf(stderr, "server phase: commit failed: %s\n",
                       resp.error.c_str());
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const GroupCommitStats group = server.stats().group;
  std::printf(
      "server phase: %d clients x %d ops; %llu commits in %llu syncs "
      "(largest batch %llu)\n",
      clients, ops, static_cast<unsigned long long>(group.frames),
      static_cast<unsigned long long>(group.fsyncs),
      static_cast<unsigned long long>(group.max_batch));
  server.Drain();
  return !failed.load();
}

bool ServerPhase(const std::string& dir) {
  const int clients = EnvInt("PIVOT_GROWTH_CLIENTS", 64);
  const int ops = EnvInt("PIVOT_GROWTH_CLIENT_OPS", 256);
  if (!RunServerWorkload(dir, clients, ops)) return false;

  // Restart over the same directory: every session recovers from its own
  // journal to the state its commits left.
  Session reference(Parse(kSource));
  for (int op = 0; op < ops; ++op) Step(reference, op);
  ServerOptions reopen;
  reopen.data_dir = dir;
  PivotServer server(std::move(reopen));
  for (int i = 0; i < clients; ++i) {
    Request recover;
    recover.op = ServerOp::kRecover;
    recover.session = "s" + std::to_string(i);
    const Response resp = server.Execute(recover);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "server phase: recover(s%d) failed: %s\n", i,
                   resp.error.c_str());
      return false;
    }
    Request source = recover;
    source.op = ServerOp::kSource;
    if (server.Execute(source).text != reference.Source()) {
      std::fprintf(stderr, "server phase: s%d recovered another state\n", i);
      return false;
    }
  }
  std::printf("server phase: all %d sessions recovered after restart\n",
              clients);
  return true;
}

}  // namespace
}  // namespace pivot

int main() {
  const std::string dir = "/tmp/pivot_growth_soak";
  std::filesystem::remove_all(dir);
  // Separate subdirs: the server owns (and creates) its data_dir.
  std::filesystem::create_directories(dir + "/session");
  const bool session_ok = pivot::SessionPhase(dir + "/session");
  const bool server_ok = pivot::ServerPhase(dir + "/server");
  std::printf("growth soak: %s\n",
              session_ok && server_ok ? "ok" : "FAILED");
  return session_ok && server_ok ? 0 : 1;
}
