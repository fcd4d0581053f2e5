// pivot_serve: hosts PIVOT sessions over a unix-domain socket and/or TCP.
//
//   pivot_serve --data DIR [--socket PATH] [--tcp HOST:PORT]
//               [--snapshot-interval N] [--max-inflight N]
//               [--session-inflight N] [--group-queue N]
//               [--no-group-fsync] [--no-fsync] [--test-ops]
//               [--mem-budget BYTES] [--max-resident N]
//               [--idle-passivate MS] [--idle-timeout MS]
//               [--read-deadline MS]
//
// One thread per connection; length-prefixed binary protocol (see
// src/pivot/server/protocol.h). At least one of --socket/--tcp is
// required; both may be given (the listeners share the server). TCP
// connections default to read deadlines (--idle-timeout/--read-deadline)
// since a WAN peer can stall forever; pass 0 to disable.
// SIGTERM/SIGINT drain gracefully: the listeners stop accepting,
// in-flight requests finish, every queued commit is synced to its session
// journal, then the process exits 0. A second signal exits immediately.

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include <unistd.h>

#include "pivot/server/listener.h"
#include "pivot/server/server.h"
#include "pivot/support/argparse.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
pivot::ServerListener* g_listener = nullptr;

void OnSignal(int) {
  if (g_stop != 0) std::_Exit(1);  // second signal: give up on draining
  g_stop = 1;
  // Break the accept loop; drain happens on the main thread. Shutdown()
  // only flips an atomic and shutdown(2)s the listen fds — signal-safe.
  if (g_listener != nullptr) g_listener->Shutdown();
}

int Usage() {
  std::cerr
      << "usage: pivot_serve --data DIR [--socket PATH] [--tcp HOST:PORT]\n"
      << "  [--snapshot-interval N]   snapshot every N txns (default 64)\n"
      << "  [--max-inflight N]        global admission bound (default 256)\n"
      << "  [--session-inflight N]    per-session bound (default 8)\n"
      << "  [--group-queue N]         group-commit queue bound (default 256)\n"
      << "  [--no-group-fsync]        one fsync per commit (baseline mode)\n"
      << "  [--no-fsync]              no fsync at all (bench mode)\n"
      << "  [--test-ops]              admit test-only ops (sleep)\n"
      << "  [--mem-budget BYTES]      resident-session byte budget "
         "(0 = unlimited)\n"
      << "  [--max-resident N]        resident-session count cap "
         "(0 = unlimited)\n"
      << "  [--idle-passivate MS]     passivate sessions idle past MS "
         "(0 = never)\n"
      << "  [--idle-timeout MS]       disconnect connections idle past MS "
         "(default 0 unix / 60000 tcp)\n"
      << "  [--read-deadline MS]      max time for one message to arrive "
         "(default 0 unix / 5000 tcp; slowloris guard)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pivot::ServerOptions options;
  pivot::ListenerOptions listen;
  std::string tcp_spec;
  int idle_timeout_ms = -1;   // -1 = by transport
  int read_deadline_ms = -1;  // -1 = by transport
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--data") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.data_dir = v;
    } else if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return Usage();
      listen.unix_path = v;
    } else if (arg == "--tcp") {
      const char* v = next();
      if (v == nullptr) return Usage();
      tcp_spec = v;
    } else if (arg == "--snapshot-interval") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--snapshot-interval", v, 1, 1'000'000,
                               &options.snapshot_interval)) {
        return Usage();
      }
    } else if (arg == "--max-inflight") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--max-inflight", v, 1, 1'000'000,
                               &options.max_inflight)) {
        return Usage();
      }
    } else if (arg == "--session-inflight") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--session-inflight", v, 1, 1'000'000,
                               &options.session_inflight)) {
        return Usage();
      }
    } else if (arg == "--group-queue") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--group-queue", v, 1, 1'000'000,
                               &options.commit.max_queue)) {
        return Usage();
      }
    } else if (arg == "--mem-budget") {
      long long bytes = 0;
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--mem-budget", v, 0, (1LL << 40), &bytes)) {
        return Usage();
      }
      options.lifecycle.memory_budget_bytes =
          static_cast<std::uint64_t>(bytes);
    } else if (arg == "--max-resident") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--max-resident", v, 0, 1'000'000,
                               &options.lifecycle.max_resident)) {
        return Usage();
      }
    } else if (arg == "--idle-passivate") {
      long long ms = 0;
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--idle-passivate", v, 0, 86'400'000, &ms)) {
        return Usage();
      }
      options.lifecycle.idle_passivate_ms = static_cast<std::uint64_t>(ms);
    } else if (arg == "--idle-timeout") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--idle-timeout", v, 0, 86'400'000,
                               &idle_timeout_ms)) {
        return Usage();
      }
    } else if (arg == "--read-deadline") {
      const char* v = next();
      if (v == nullptr ||
          !pivot::ParseIntFlag("--read-deadline", v, 0, 86'400'000,
                               &read_deadline_ms)) {
        return Usage();
      }
    } else if (arg == "--no-group-fsync") {
      options.commit.group_fsync = false;
    } else if (arg == "--no-fsync") {
      options.commit.fsync = false;
    } else if (arg == "--test-ops") {
      options.enable_test_ops = true;
    } else {
      return Usage();
    }
  }
  if (!tcp_spec.empty() &&
      !pivot::ParseHostPort(tcp_spec, &listen.tcp_host, &listen.tcp_port)) {
    std::cerr << "pivot_serve: bad --tcp spec '" << tcp_spec
              << "' (want HOST:PORT)\n";
    return 2;
  }
  if (options.data_dir.empty() ||
      (listen.unix_path.empty() && listen.tcp_host.empty())) {
    return Usage();
  }
  // Unix sockets keep the historical trust model (no deadlines) unless
  // asked; TCP defaults to bounded reads — a WAN peer can stall forever.
  const bool tcp = !listen.tcp_host.empty();
  listen.limits.idle_timeout_ms =
      idle_timeout_ms >= 0 ? idle_timeout_ms : (tcp ? 60'000 : 0);
  listen.limits.frame_timeout_ms =
      read_deadline_ms >= 0 ? read_deadline_ms : (tcp ? 5'000 : 0);

  std::signal(SIGPIPE, SIG_IGN);

  try {
    pivot::PivotServer server(std::move(options));
    pivot::ServerListener listener(server, std::move(listen));
    g_listener = &listener;
    std::signal(SIGTERM, OnSignal);
    std::signal(SIGINT, OnSignal);
    if (!listener.tcp_port()) {
      std::cerr << "pivot_serve: listening\n";
    } else {
      // The resolved port on its own line so scripts binding port 0 can
      // scrape it.
      std::cerr << "pivot_serve: listening tcp port " << listener.tcp_port()
                << "\n";
    }
    listener.Run();
    std::cerr << "pivot_serve: draining\n";
    server.Drain();
    g_listener = nullptr;
    std::cerr << "pivot_serve: drained, exiting\n";
  } catch (const std::exception& e) {
    std::cerr << "pivot_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
