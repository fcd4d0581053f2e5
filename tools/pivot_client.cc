// pivot_client: one-shot command-line client for pivot_serve.
//
//   pivot_client (--socket PATH | --tcp HOST:PORT)
//                [--deadline MS] [--retries N] COMMAND ...
//
// Commands:
//   ping                        server mode probe
//   open NAME FILE              open a session from a source file (- = stdin)
//   recover NAME                recover a session from its journal
//   close NAME
//   apply NAME KIND INDEX       e.g. apply s1 CSE 0
//   undo NAME STAMP
//   undoset NAME STAMP...
//   undolast NAME
//   canundo NAME STAMP
//   source NAME
//   history NAME
//   stats
//   shutdown                    drain the server
//
// Retryable rejections (overloaded / shutting-down) are retried with
// jittered exponential backoff up to --retries times; everything else is
// final. Exit status: 0 ok, 1 request failed, 2 usage/transport error.

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "pivot/server/listener.h"
#include "pivot/server/protocol.h"
#include "pivot/support/argparse.h"
#include "pivot/support/rng.h"
#include "pivot/transform/transform.h"

namespace {

int Usage() {
  std::cerr << "usage: pivot_client (--socket PATH | --tcp HOST:PORT) "
               "[--deadline MS] [--retries N] COMMAND ...\n"
               "see the header of tools/pivot_client.cc for commands\n";
  return 2;
}

bool ParseKind(const std::string& name, int* out) {
  for (int i = 0; i < pivot::kNumTransformKinds; ++i) {
    if (name == pivot::TransformKindName(pivot::TransformKindFromIndex(i))) {
      *out = i;
      return true;
    }
  }
  return false;
}

std::string ReadSource(const std::string& file) {
  if (file == "-") {
    std::ostringstream os;
    os << std::cin.rdbuf();
    return os.str();
  }
  std::ifstream in(file);
  if (!in) throw pivot::ProgramError("cannot read " + file);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp_host;
  int tcp_port = 0;
  std::uint32_t deadline_ms = 0;
  int retries = 0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--tcp" && i + 1 < argc) {
      if (!pivot::ParseHostPort(argv[++i], &tcp_host, &tcp_port)) {
        std::cerr << "pivot_client: bad --tcp spec (want HOST:PORT)\n";
        return 2;
      }
    } else if (arg == "--deadline" && i + 1 < argc) {
      long long ms = 0;
      if (!pivot::ParseIntFlag("--deadline", argv[++i], 0, UINT32_MAX,
                               &ms)) {
        return Usage();
      }
      deadline_ms = static_cast<std::uint32_t>(ms);
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!pivot::ParseIntFlag("--retries", argv[++i], 0, 1'000'000,
                               &retries)) {
        return Usage();
      }
    } else {
      break;
    }
  }
  if ((socket_path.empty() == tcp_host.empty()) || i >= argc) {
    return Usage();  // exactly one transport
  }

  std::vector<std::string> cmd(argv + i, argv + argc);
  pivot::Request req;
  req.deadline_ms = deadline_ms;
  try {
    const std::string& verb = cmd[0];
    auto need = [&](std::size_t n) {
      if (cmd.size() != n + 1) throw pivot::ProgramError("bad arity");
    };
    if (verb == "ping") {
      need(0);
      req.op = pivot::ServerOp::kPing;
    } else if (verb == "open") {
      need(2);
      req.op = pivot::ServerOp::kOpen;
      req.session = cmd[1];
      req.source = ReadSource(cmd[2]);
    } else if (verb == "recover") {
      need(1);
      req.op = pivot::ServerOp::kRecover;
      req.session = cmd[1];
    } else if (verb == "close") {
      need(1);
      req.op = pivot::ServerOp::kClose;
      req.session = cmd[1];
    } else if (verb == "apply") {
      need(3);
      req.op = pivot::ServerOp::kApply;
      req.session = cmd[1];
      if (!ParseKind(cmd[2], &req.kind)) {
        std::cerr << "unknown transform '" << cmd[2] << "'\n";
        return 2;
      }
      long long op_index = 0;
      if (!pivot::ParseIntFlag("INDEX", cmd[3].c_str(), 0, UINT32_MAX,
                               &op_index)) {
        return 2;
      }
      req.op_index = static_cast<std::uint32_t>(op_index);
    } else if (verb == "undo" || verb == "canundo") {
      need(2);
      req.op = verb == "undo" ? pivot::ServerOp::kUndo
                              : pivot::ServerOp::kCanUndo;
      req.session = cmd[1];
      long long stamp = 0;
      if (!pivot::ParseIntFlag("STAMP", cmd[2].c_str(), 1, UINT32_MAX,
                               &stamp)) {
        return 2;
      }
      req.stamps.push_back(static_cast<pivot::OrderStamp>(stamp));
    } else if (verb == "undoset") {
      if (cmd.size() < 3) throw pivot::ProgramError("bad arity");
      req.op = pivot::ServerOp::kUndoSet;
      req.session = cmd[1];
      for (std::size_t j = 2; j < cmd.size(); ++j) {
        long long stamp = 0;
        if (!pivot::ParseIntFlag("STAMP", cmd[j].c_str(), 1, UINT32_MAX,
                                 &stamp)) {
          return 2;
        }
        req.stamps.push_back(static_cast<pivot::OrderStamp>(stamp));
      }
    } else if (verb == "undolast") {
      need(1);
      req.op = pivot::ServerOp::kUndoLast;
      req.session = cmd[1];
    } else if (verb == "source") {
      need(1);
      req.op = pivot::ServerOp::kSource;
      req.session = cmd[1];
    } else if (verb == "history") {
      need(1);
      req.op = pivot::ServerOp::kHistory;
      req.session = cmd[1];
    } else if (verb == "stats") {
      need(0);
      req.op = pivot::ServerOp::kStats;
    } else if (verb == "shutdown") {
      need(0);
      req.op = pivot::ServerOp::kShutdown;
    } else {
      std::cerr << "unknown command '" << verb << "'\n";
      return Usage();
    }
  } catch (const pivot::ProgramError& e) {
    std::cerr << "pivot_client: " << e.what() << "\n";
    return Usage();
  }

  // Seed per process so a herd of clients retrying the same overloaded
  // server jitters apart instead of re-colliding in lockstep.
  pivot::Rng rng(static_cast<std::uint64_t>(::getpid()) * 0x9e3779b9u +
                 static_cast<std::uint64_t>(
                     std::chrono::steady_clock::now().time_since_epoch()
                         .count()));
  for (int attempt = 0;; ++attempt) {
    const int fd = socket_path.empty()
                       ? pivot::DialTcp(tcp_host, tcp_port)
                       : pivot::DialUnix(socket_path);
    if (fd < 0) {
      std::cerr << "pivot_client: cannot connect to "
                << (socket_path.empty()
                        ? tcp_host + ":" + std::to_string(tcp_port)
                        : socket_path)
                << "\n";
      return 2;
    }
    pivot::Response resp;
    try {
      pivot::WriteMessage(fd, pivot::EncodeRequest(req));
      std::string payload;
      if (!pivot::ReadMessage(fd, &payload)) {
        throw pivot::ProgramError("server closed the connection");
      }
      resp = pivot::DecodeResponse(payload);
    } catch (const pivot::ProgramError& e) {
      ::close(fd);
      std::cerr << "pivot_client: " << e.what() << "\n";
      return 2;
    }
    ::close(fd);

    if (resp.retryable && attempt < retries) {
      // Capped exponential backoff with full jitter: the sleep is uniform
      // in [1, 10·2^min(attempt,6)] ms, so clients rejected by the same
      // overloaded server spread out instead of retrying in a synchronized
      // wave that re-creates the overload.
      const int exp = attempt > 6 ? 6 : attempt;
      const int cap_ms = 10 << exp;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(rng.UniformInt(1, cap_ms)));
      continue;
    }

    std::cout << pivot::StatusCodeName(resp.status);
    if (resp.stamp != pivot::kNoStamp) std::cout << " stamp=" << resp.stamp;
    if (resp.value != 0) std::cout << " value=" << resp.value;
    std::cout << "\n";
    if (!resp.error.empty()) std::cout << resp.error << "\n";
    if (!resp.text.empty()) std::cout << resp.text << "\n";
    return resp.status == pivot::StatusCode::kOk ? 0 : 1;
  }
}
