// Server throughput study: what group commit buys (DESIGN.md §12), what
// session passivation costs (§15), and what the socket transports add.
//
// BENCH_journal puts one durable commit at ~145 µs, almost all the sync.
// With N concurrent sessions committing, per-commit fsync serializes N
// syncs behind the journal locks; group commit makes every in-flight
// frame durable with one sync (fdatasync of the one file a batch touches,
// or one syncfs of the data dir). The first study drives C client threads
// (each its own hosted session, alternating apply/undo commits through
// PivotServer::Execute) in both modes and reports txn/s:
//
//   clients x {per-commit fsync, group commit}, C in {1, 64, 1024}
//
// The gate, at 64 clients, is on the batching, not the disk: the
// per-commit row syncs once per commit, the group row makes at least 16
// commits durable per sync, and group throughput is at least per-commit
// throughput. The per-commit row must fail the batching test, or the
// test could not tell batching from its absence. The group/per-commit
// throughput ratio is printed and recorded but not gated: its baseline is
// one sync per commit, so it scales with the device's sync cost (5x where
// a sync costs ~145 us, 2.4-3.7x where it costs ~90 us).
//
// The eviction study opens 1000 idle sessions under a memory budget
// calibrated to hold ~64 of them resident: the byte-accounted LRU must
// keep stats().resident_bytes under the budget the whole way (exit-code
// gated), and a sample of passivated sessions is then reactivated with
// the per-request latency and correctness checked.
//
// The socket study runs the same commit workload through a real
// ServerListener over the unix socket and over TCP loopback, reporting
// framed request/s per transport.
//
// Results land in BENCH_server.json; EXPERIMENTS.md holds reference runs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/server/listener.h"
#include "pivot/server/protocol.h"
#include "pivot/server/server.h"
#include "pivot/support/benchjson.h"
#include "pivot/transform/transform.h"

namespace pivot {
namespace {

const char kSource[] =
    "y = 3 * 4\n"
    "z = 5 * 6\n"
    "write y\n"
    "write z\n";

std::string DataDir() { return "/tmp/pivot_bench_server"; }

struct RunResult {
  double seconds = 0;
  std::uint64_t commits = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t max_batch = 0;
  double TxnPerSec() const {
    return seconds > 0 ? static_cast<double>(commits) / seconds : 0;
  }
};

// C threads, each committing `ops` transactions against its own session.
// Sessions are opened (and their genesis frames flushed) outside the
// timed region: the measurement is the steady-state commit path.
RunResult RunWorkload(int clients, int ops, bool group_fsync) {
  std::filesystem::remove_all(DataDir());
  ServerOptions options;
  options.data_dir = DataDir();
  options.commit.group_fsync = group_fsync;
  // Capacity for the largest fleet: admission control is not under test.
  options.max_inflight = clients + 16;
  options.commit.max_queue = 2 * clients + 16;
  PivotServer server(std::move(options));

  for (int i = 0; i < clients; ++i) {
    Request open;
    open.op = ServerOp::kOpen;
    open.session = "s" + std::to_string(i);
    open.source = kSource;
    const Response resp = server.Execute(open);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "open failed: %s\n", resp.error.c_str());
      return {};
    }
  }
  const std::uint64_t fsyncs_before = server.stats().group.fsyncs;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&server, i, ops] {
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
          std::fprintf(stderr, "commit failed: %s\n", resp.error.c_str());
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.commits = static_cast<std::uint64_t>(clients) *
              static_cast<std::uint64_t>(ops);
  const ServerStats stats = server.stats();
  r.fsyncs = stats.group.fsyncs - fsyncs_before;
  r.max_batch = stats.group.max_batch;
  server.Drain();
  return r;
}

// The batching test of the throughput gate.
constexpr int kMinCommitsPerSync = 16;

double CommitsPerSync(const RunResult& r) {
  return r.fsyncs > 0 ? static_cast<double>(r.commits) /
                            static_cast<double>(r.fsyncs)
                      : 0;
}

bool Batches(const RunResult& r) {
  return CommitsPerSync(r) >= kMinCommitsPerSync;
}

bool ThroughputStudy(BenchJson& json) {
  const bool smoke = BenchSmokeMode();
  const std::vector<int> fleets =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 64, 1024};
  // Roughly constant total commits per run so every row takes comparable
  // wall time; at least two ops each so apply/undo both appear.
  const int total = smoke ? 16 : 2048;

  std::printf("== Server commit throughput: per-commit fsync vs group ==\n");
  std::printf("%8s %10s %10s %12s %10s %10s\n", "clients", "mode", "txns",
              "txn/s", "fsyncs", "max_batch");
  RunResult per_commit_64, group_64;
  for (const int clients : fleets) {
    const int ops = std::max(2, total / clients);
    for (const bool group_fsync : {false, true}) {
      const RunResult r = RunWorkload(clients, ops, group_fsync);
      if (r.commits == 0) return false;
      const char* mode = group_fsync ? "group" : "per-commit";
      std::printf("%8d %10s %10llu %12.0f %10llu %10llu\n", clients, mode,
                  static_cast<unsigned long long>(r.commits), r.TxnPerSec(),
                  static_cast<unsigned long long>(r.fsyncs),
                  static_cast<unsigned long long>(r.max_batch));
      json.Row()
          .Str("section", "throughput")
          .Int("clients", static_cast<std::uint64_t>(clients))
          .Str("mode", mode)
          .Int("txns", r.commits)
          .Num("txn_per_sec", r.TxnPerSec())
          .Int("fsyncs", r.fsyncs)
          .Int("max_batch", r.max_batch);
      if (clients == 64) (group_fsync ? group_64 : per_commit_64) = r;
    }
  }

  if (smoke) return true;  // the gate needs the real 64-client fleet
  const double speedup =
      per_commit_64.TxnPerSec() > 0
          ? group_64.TxnPerSec() / per_commit_64.TxnPerSec()
          : 0;
  const bool syncs_each = per_commit_64.fsyncs == per_commit_64.commits;
  const bool group_batches = Batches(group_64);
  const bool discriminates = !Batches(per_commit_64);
  const bool not_slower = group_64.TxnPerSec() >= per_commit_64.TxnPerSec();
  json.Row()
      .Str("section", "throughput_gate")
      .Int("clients", 64)
      .Num("speedup", speedup)
      .Num("group_commits_per_sync", CommitsPerSync(group_64))
      .Num("per_commit_commits_per_sync", CommitsPerSync(per_commit_64));
  std::printf("group-commit speedup at 64 clients: %.1fx (not gated: "
              "scales with the sync cost)\n",
              speedup);
  std::printf("gate at 64 clients: per-commit syncs once per commit %s; "
              "group %.1f commits/sync (>= %d) %s; per-commit row fails "
              "the batching test %s; group txn/s >= per-commit %s\n",
              syncs_each ? "ok" : "FAIL", CommitsPerSync(group_64),
              kMinCommitsPerSync, group_batches ? "ok" : "FAIL",
              discriminates ? "ok" : "FAIL", not_slower ? "ok" : "FAIL");
  return syncs_each && group_batches && discriminates && not_slower;
}

// Opens a big fleet of idle sessions under a byte budget sized for a
// fraction of them, verifying the LRU keeps the resident footprint under
// the cap throughout, then reactivates a sample and times it.
bool EvictionStudy(BenchJson& json) {
  const bool smoke = BenchSmokeMode();
  const int sessions = smoke ? 32 : 1000;
  const int resident_target = smoke ? 8 : 64;

  // Calibrate: one hosted session's estimated footprint, measured rather
  // than assumed, so the budget means the same thing across compilers and
  // libstdc++ versions.
  std::uint64_t per_session = 0;
  {
    std::filesystem::remove_all(DataDir());
    ServerOptions options;
    options.data_dir = DataDir();
    PivotServer server(std::move(options));
    Request open;
    open.op = ServerOp::kOpen;
    open.session = "probe";
    open.source = kSource;
    if (server.Execute(open).status != StatusCode::kOk) return false;
    per_session = server.stats().resident_bytes;
    server.Drain();
  }
  if (per_session == 0) return false;
  const std::uint64_t budget =
      per_session * static_cast<std::uint64_t>(resident_target);

  std::filesystem::remove_all(DataDir());
  ServerOptions options;
  options.data_dir = DataDir();
  options.lifecycle.memory_budget_bytes = budget;
  PivotServer server(std::move(options));

  std::uint64_t peak_resident = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < sessions; ++i) {
    Request open;
    open.op = ServerOp::kOpen;
    open.session = "s" + std::to_string(i);
    open.source = kSource;
    const Response resp = server.Execute(open);
    if (resp.status != StatusCode::kOk) {
      std::fprintf(stderr, "open failed: %s\n", resp.error.c_str());
      return false;
    }
    peak_resident = std::max(peak_resident, server.stats().resident_bytes);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double open_secs = std::chrono::duration<double>(t1 - t0).count();
  const ServerStats after_opens = server.stats();

  // Reactivate a sample of long-passivated sessions (the oldest are
  // certainly out) and verify each comes back with the right program.
  const std::string want = Session{Parse(kSource)}.Source();
  const int sample = std::min(sessions, 2 * resident_target);
  const auto t2 = std::chrono::steady_clock::now();
  for (int i = 0; i < sample; ++i) {
    Request src;
    src.op = ServerOp::kSource;
    src.session = "s" + std::to_string(i);
    const Response resp = server.Execute(src);
    if (resp.status != StatusCode::kOk || resp.text != want) {
      std::fprintf(stderr, "reactivation of s%d came back wrong: %s\n", i,
                   resp.error.c_str());
      return false;
    }
  }
  const auto t3 = std::chrono::steady_clock::now();
  const double react_us =
      std::chrono::duration<double, std::micro>(t3 - t2).count() / sample;
  const ServerStats final_stats = server.stats();
  server.Drain();

  std::printf("\n== Session eviction: %d idle sessions, budget for %d ==\n",
              sessions, resident_target);
  std::printf(
      "budget=%llu peak_resident=%llu passivations=%llu "
      "reactivations=%llu open/s=%.0f reactivate=%.0fus\n",
      static_cast<unsigned long long>(budget),
      static_cast<unsigned long long>(peak_resident),
      static_cast<unsigned long long>(final_stats.passivations),
      static_cast<unsigned long long>(final_stats.reactivations),
      open_secs > 0 ? sessions / open_secs : 0, react_us);
  json.Row()
      .Str("section", "eviction")
      .Int("sessions", static_cast<std::uint64_t>(sessions))
      .Int("budget_bytes", budget)
      .Int("peak_resident_bytes", peak_resident)
      .Int("passivations", final_stats.passivations)
      .Int("reactivations", final_stats.reactivations)
      .Num("open_per_sec", open_secs > 0 ? sessions / open_secs : 0)
      .Num("reactivate_us", react_us);

  // The gate: the budget held the whole time, and the sample reactivated.
  if (peak_resident > budget) {
    std::printf("FAIL: resident bytes %llu exceeded the %llu budget\n",
                static_cast<unsigned long long>(peak_resident),
                static_cast<unsigned long long>(budget));
    return false;
  }
  if (final_stats.reactivations < static_cast<std::uint64_t>(
                                      sample - resident_target)) {
    std::printf("FAIL: expected the sample to mostly reactivate\n");
    return false;
  }
  return true;
}

// The same alternating commit workload pushed through a real listener:
// one persistent connection per transport, framed request/response.
bool SocketStudy(BenchJson& json) {
  const bool smoke = BenchSmokeMode();
  const int reqs = smoke ? 16 : 2048;

  std::filesystem::remove_all(DataDir());
  ServerOptions options;
  options.data_dir = DataDir();
  PivotServer server(std::move(options));
  ListenerOptions lo;
  lo.unix_path = DataDir() + ".sock";
  lo.tcp_host = "127.0.0.1";
  lo.tcp_port = 0;
  ServerListener listener(server, lo);
  std::thread accept_loop([&listener] { listener.Run(); });

  std::printf("\n== Socket transports: framed commits over one connection ==\n");
  std::printf("%8s %10s %12s\n", "kind", "reqs", "req/s");
  bool ok = true;
  for (const bool tcp : {false, true}) {
    const int fd = tcp ? DialTcp("127.0.0.1", listener.tcp_port())
                       : DialUnix(lo.unix_path);
    if (fd < 0) {
      std::fprintf(stderr, "dial failed\n");
      ok = false;
      break;
    }
    const std::string name = tcp ? "sock_tcp" : "sock_unix";
    Request open;
    open.op = ServerOp::kOpen;
    open.session = name;
    open.source = kSource;
    WriteMessage(fd, EncodeRequest(open));
    std::string payload;
    if (!ReadMessage(fd, &payload) ||
        DecodeResponse(payload).status != StatusCode::kOk) {
      std::fprintf(stderr, "open over socket failed\n");
      ::close(fd);
      ok = false;
      break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int op = 0; op < reqs && ok; ++op) {
      Request req;
      req.session = name;
      if (op % 2 == 0) {
        req.op = ServerOp::kApply;
        req.kind = TransformKindIndex(TransformKind::kCfo);
        req.op_index = 0;
      } else {
        req.op = ServerOp::kUndoLast;
      }
      WriteMessage(fd, EncodeRequest(req));
      if (!ReadMessage(fd, &payload) ||
          DecodeResponse(payload).status != StatusCode::kOk) {
        std::fprintf(stderr, "commit over socket failed\n");
        ok = false;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    ::close(fd);
    if (!ok) break;
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    const double rate = secs > 0 ? reqs / secs : 0;
    std::printf("%8s %10d %12.0f\n", tcp ? "tcp" : "unix", reqs, rate);
    json.Row()
        .Str("section", "socket")
        .Str("transport", tcp ? "tcp" : "unix")
        .Int("reqs", static_cast<std::uint64_t>(reqs))
        .Num("req_per_sec", rate);
  }

  listener.Shutdown();
  accept_loop.join();
  server.Drain();
  return ok;
}

bool RunAll() {
  BenchJson json("server");
  bool ok = ThroughputStudy(json);
  ok = EvictionStudy(json) && ok;
  ok = SocketStudy(json) && ok;
  const std::string out = json.WriteFile(".");
  if (!out.empty()) std::printf("wrote %s\n", out.c_str());
  return ok;
}

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // accept the standard flags
  return pivot::RunAll() ? 0 : 1;
}
