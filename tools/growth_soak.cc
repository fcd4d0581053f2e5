// Growth soak (ci/run_growth_soak.sh): drives the two journal-growth
// fixes long enough for their byte bounds to mean something, and exits
// non-zero when a bound is violated.
//
// The live image of a long apply/undo session legitimately grows with
// its history (undo state IS state), so neither journal can promise a
// constant size. What retention promises — and what this soak asserts —
// is relative: the file tracks the live state instead of accumulating
// every frame ever written. Each phase therefore runs its workload
// twice, with the growth fix off and on, and gates on the ratio:
//
//   * Session phase: PIVOT_GROWTH_OPS (default 10000) alternating
//     apply/undo commits against one DurableJournal with snapshots,
//     compaction off vs on. The compacted journal's
//     PEAK must be >= 4x smaller than the uncompacted FINAL, and the
//     compacted journal must recover to the same source.
//
//   * Server phase: PIVOT_GROWTH_CLIENTS (default 64) threads, each
//     committing PIVOT_GROWTH_CLIENT_OPS (default 256) operations
//     against its own hosted session, server.gwal retention off vs on.
//     The retained log's peak must be >= 2x below the unretained one
//     (a saturated burst can outrun the pass, so the margin is modest),
//     a quiesced explicit pass must then reclaim the log to below the
//     retention threshold, and a restart must recover every session.
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
                                    [](FrameType, const std::string&) {});
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

struct ServerRun {
  std::uint64_t peak = 0;
  std::uint64_t passes = 0;
  std::uint64_t final_bytes = 0;  // after a quiesced explicit pass
  bool ok = false;
};

ServerRun RunServerWorkload(const std::string& dir, int clients, int ops,
                            std::uint64_t threshold) {
  ServerRun run;
  ServerOptions options;
  options.data_dir = dir;
  options.gwal_compact_bytes = threshold;
  options.max_inflight = clients + 16;
  options.commit.max_queue = 2 * clients + 16;

  std::atomic<std::uint64_t> peak{0};
  std::atomic<bool> failed{false};
  PivotServer server(std::move(options));
  const std::string gwal_path = server.GroupWalPath();
  for (int i = 0; i < clients; ++i) {
    Request open;
    open.op = ServerOp::kOpen;
    open.session = "s" + std::to_string(i);
    open.source = kSource;
    const Response resp = server.Execute(open);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "server phase: open failed: %s\n",
                   resp.error.c_str());
      return run;
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&server, &peak, &failed, &gwal_path, i, ops] {
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
        std::error_code ec;
        const std::uint64_t bytes =
            std::filesystem::file_size(gwal_path, ec);
        if (ec) continue;
        std::uint64_t seen = peak.load();
        while (bytes > seen && !peak.compare_exchange_weak(seen, bytes)) {
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed.load()) return run;

  // A quiesced pass: with no commit in flight, retention reclaims every
  // covered envelope in one sweep.
  Request compact;
  compact.op = ServerOp::kCompact;
  const Response resp = server.Execute(compact);
  if (resp.status != StatusCode::kOk) {
    std::fprintf(stderr, "server phase: explicit compact failed: %s\n",
                 resp.error.c_str());
    return run;
  }
  run.final_bytes = resp.value;
  run.peak = peak.load();
  run.passes = server.stats().group.compactions;
  server.Drain();
  run.ok = true;
  return run;
}

bool ServerPhase(const std::string& dir) {
  const int clients = EnvInt("PIVOT_GROWTH_CLIENTS", 64);
  const int ops = EnvInt("PIVOT_GROWTH_CLIENT_OPS", 256);
  const std::uint64_t threshold = 64 * 1024;

  std::filesystem::create_directories(dir);  // the server creates leaves
  const ServerRun off =
      RunServerWorkload(dir + "/plain", clients, ops, /*threshold=*/0);
  const ServerRun on =
      RunServerWorkload(dir + "/retained", clients, ops, threshold);
  if (!off.ok || !on.ok) return false;

  std::printf(
      "server phase: %d clients x %d ops; unretained peak %llu bytes; "
      "retained peak %llu bytes over %llu passes, %llu after the "
      "quiesced pass (threshold %llu)\n",
      clients, ops, static_cast<unsigned long long>(off.peak),
      static_cast<unsigned long long>(on.peak),
      static_cast<unsigned long long>(on.passes),
      static_cast<unsigned long long>(on.final_bytes),
      static_cast<unsigned long long>(threshold));
  // The explicit quiesced pass counts too, so >= 2 means at least one
  // pass fired under concurrent load.
  if (on.passes < 2) {
    std::fprintf(stderr, "server phase: retention never ran under load\n");
    return false;
  }
  if (on.peak * 2 > off.peak) {
    std::fprintf(stderr,
                 "server phase: retained peak is not >=2x below the "
                 "unretained log\n");
    return false;
  }
  if (on.final_bytes > threshold) {
    std::fprintf(stderr,
                 "server phase: quiesced pass left the log above the "
                 "retention threshold\n");
    return false;
  }

  // Restart over the retained directory: retention must not have cost
  // any acknowledged commit its recoverability.
  ServerOptions reopen;
  reopen.data_dir = dir + "/retained";
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
