#include "pivot/server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include <cerrno>
#include <cstring>

#include "pivot/persist/token.h"
#include "pivot/support/crc32c.h"

namespace pivot {
namespace {

using persist_internal::Malformed;
using persist_internal::TokenReader;
using persist_internal::TokenWriter;

constexpr ServerOp kAllOps[] = {
    ServerOp::kPing,    ServerOp::kOpen,     ServerOp::kRecover,
    ServerOp::kClose,   ServerOp::kApply,    ServerOp::kTxn,
    ServerOp::kUndo,    ServerOp::kUndoSet,  ServerOp::kUndoLast,
    ServerOp::kCanUndo, ServerOp::kSource,   ServerOp::kHistory,
    ServerOp::kStats,   ServerOp::kSleep,    ServerOp::kCompact,
    ServerOp::kShutdown,
};

constexpr StatusCode kAllStatuses[] = {
    StatusCode::kOk,           StatusCode::kBadRequest,
    StatusCode::kNoSuchSession, StatusCode::kSessionExists,
    StatusCode::kPrecondition, StatusCode::kOverloaded,
    StatusCode::kDeadlineExceeded, StatusCode::kDegraded,
    StatusCode::kShuttingDown, StatusCode::kCrashed,
};

void PutU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

std::uint32_t GetU32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[noreturn]] void IoError(const std::string& what) {
  throw ProgramError("server transport: " + what + ": " +
                     std::strerror(errno));
}

// Reads exactly `len` bytes. Returns false on EOF before the first byte
// when `eof_ok`; EOF mid-buffer always throws (a torn message).
bool ReadAll(int fd, void* buf, std::size_t len, bool eof_ok) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      IoError("read failed");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProgramError("server transport: connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void SendAll(int fd, const void* buf, std::size_t len) {
  const char* p = static_cast<const char*>(buf);
  while (len > 0) {
    // MSG_NOSIGNAL: a peer that disconnected mid-response must surface as
    // an error on this connection, not SIGPIPE for the whole daemon.
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      IoError("write failed");
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

// Like ReadAll but with an absolute deadline: each read(2) is preceded by
// a poll(2) bounded by the time remaining. kNoReadDeadline disables the
// bound (plain blocking reads). Throws ReadTimeoutError on expiry.
using ReadClock = std::chrono::steady_clock;
constexpr ReadClock::time_point kNoReadDeadline = ReadClock::time_point::max();

bool ReadAllUntil(int fd, void* buf, std::size_t len, bool eof_ok,
                  ReadClock::time_point deadline) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  while (got < len) {
    if (deadline != kNoReadDeadline) {
      const auto now = ReadClock::now();
      if (now >= deadline) {
        throw ReadTimeoutError(got == 0 ? "waiting for a request"
                                        : "mid-message");
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - now)
                            .count();
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(left > 0 ? left : 1));
      if (ready < 0) {
        if (errno == EINTR) continue;
        IoError("poll failed");
      }
      if (ready == 0) continue;  // loop re-checks the deadline
      // POLLHUP/POLLERR fall through to read(2), which reports EOF or the
      // error with the usual semantics.
    }
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      IoError("read failed");
    }
    if (n == 0) {
      if (got == 0 && eof_ok) return false;
      throw ProgramError("server transport: connection closed mid-message");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

const char* ServerOpName(ServerOp op) {
  switch (op) {
    case ServerOp::kPing: return "ping";
    case ServerOp::kOpen: return "open";
    case ServerOp::kRecover: return "recover";
    case ServerOp::kClose: return "close";
    case ServerOp::kApply: return "apply";
    case ServerOp::kTxn: return "txn";
    case ServerOp::kUndo: return "undo";
    case ServerOp::kUndoSet: return "undoset";
    case ServerOp::kUndoLast: return "undolast";
    case ServerOp::kCanUndo: return "canundo";
    case ServerOp::kSource: return "source";
    case ServerOp::kHistory: return "history";
    case ServerOp::kStats: return "stats";
    case ServerOp::kSleep: return "sleep";
    case ServerOp::kCompact: return "compact";
    case ServerOp::kShutdown: return "shutdown";
  }
  return "?";
}

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kBadRequest: return "bad-request";
    case StatusCode::kNoSuchSession: return "no-such-session";
    case StatusCode::kSessionExists: return "session-exists";
    case StatusCode::kPrecondition: return "precondition";
    case StatusCode::kOverloaded: return "overloaded";
    case StatusCode::kDeadlineExceeded: return "deadline-exceeded";
    case StatusCode::kDegraded: return "degraded";
    case StatusCode::kShuttingDown: return "shutting-down";
    case StatusCode::kCrashed: return "crashed";
  }
  return "?";
}

bool StatusRetryable(StatusCode code) {
  return code == StatusCode::kOverloaded || code == StatusCode::kShuttingDown;
}

std::string EncodeRequest(const Request& req) {
  TokenWriter w;
  w.Tok("pivotq");
  w.U32(kServerProtocolVersion);
  w.Tok(ServerOpName(req.op));
  w.Str(req.session);
  w.U32(req.deadline_ms);
  w.Str(req.source);
  w.Int(req.kind);
  w.U32(req.op_index);
  w.Int(static_cast<long long>(req.stamps.size()));
  for (OrderStamp s : req.stamps) w.U32(s);
  w.Str(req.txn_body);
  w.U64(req.sleep_ms);
  return w.Take();
}

Request DecodeRequest(const std::string& payload) {
  TokenReader r(payload);
  Request req;
  r.Expect("pivotq");
  const std::uint32_t version = r.U32();
  if (version != kServerProtocolVersion) {
    Malformed("protocol version " + std::to_string(version) +
              " is not supported");
  }
  const std::string op = r.Next();
  bool known = false;
  for (ServerOp candidate : kAllOps) {
    if (op == ServerOpName(candidate)) {
      req.op = candidate;
      known = true;
      break;
    }
  }
  if (!known) Malformed("unknown server op '" + op + "'");
  req.session = r.Str();
  req.deadline_ms = r.U32();
  req.source = r.Str();
  req.kind = static_cast<int>(r.Int());
  req.op_index = r.U32();
  const std::size_t n = r.Count(1u << 20);
  for (std::size_t i = 0; i < n; ++i) req.stamps.push_back(r.U32());
  req.txn_body = r.Str();
  req.sleep_ms = r.U64();
  if (!r.AtEnd()) Malformed("trailing data in request");
  return req;
}

std::string EncodeResponse(const Response& resp) {
  TokenWriter w;
  w.Tok("pivotr");
  w.Tok(StatusCodeName(resp.status));
  w.Int(resp.retryable ? 1 : 0);
  w.Str(resp.error);
  w.U32(resp.stamp);
  w.U64(resp.value);
  w.Str(resp.text);
  return w.Take();
}

Response DecodeResponse(const std::string& payload) {
  TokenReader r(payload);
  Response resp;
  r.Expect("pivotr");
  const std::string status = r.Next();
  bool known = false;
  for (StatusCode candidate : kAllStatuses) {
    if (status == StatusCodeName(candidate)) {
      resp.status = candidate;
      known = true;
      break;
    }
  }
  if (!known) Malformed("unknown status '" + status + "'");
  resp.retryable = r.Int() != 0;
  resp.error = r.Str();
  resp.stamp = r.U32();
  resp.value = r.U64();
  resp.text = r.Str();
  if (!r.AtEnd()) Malformed("trailing data in response");
  return resp;
}

bool ReadMessage(int fd, std::string* payload) {
  unsigned char header[8];
  if (!ReadAll(fd, header, sizeof header, /*eof_ok=*/true)) return false;
  const std::uint32_t len = GetU32(header);
  const std::uint32_t crc = GetU32(header + 4);
  if (len == 0 || len > kMaxMessageBytes) {
    throw ProgramError("server transport: implausible message length " +
                       std::to_string(len));
  }
  payload->resize(len);
  ReadAll(fd, payload->data(), len, /*eof_ok=*/false);
  if (Crc32c(*payload) != crc) {
    throw ProgramError("server transport: message checksum mismatch");
  }
  return true;
}

bool ReadMessage(int fd, std::string* payload, int idle_ms, int frame_ms) {
  if (idle_ms <= 0 && frame_ms <= 0) return ReadMessage(fd, payload);
  // The idle bound covers the wait for the message's first byte only; a
  // connection with no request in flight is allowed that much silence.
  unsigned char header[8];
  const ReadClock::time_point idle_deadline =
      idle_ms > 0 ? ReadClock::now() + std::chrono::milliseconds(idle_ms)
                  : kNoReadDeadline;
  if (!ReadAllUntil(fd, header, 1, /*eof_ok=*/true, idle_deadline)) {
    return false;
  }
  // First byte in hand: the whole remainder must arrive under the frame
  // bound, however slowly the peer dribbles it.
  const ReadClock::time_point frame_deadline =
      frame_ms > 0 ? ReadClock::now() + std::chrono::milliseconds(frame_ms)
                   : kNoReadDeadline;
  ReadAllUntil(fd, header + 1, sizeof header - 1, /*eof_ok=*/false,
               frame_deadline);
  const std::uint32_t len = GetU32(header);
  const std::uint32_t crc = GetU32(header + 4);
  if (len == 0 || len > kMaxMessageBytes) {
    throw ProgramError("server transport: implausible message length " +
                       std::to_string(len));
  }
  payload->resize(len);
  ReadAllUntil(fd, payload->data(), len, /*eof_ok=*/false, frame_deadline);
  if (Crc32c(*payload) != crc) {
    throw ProgramError("server transport: message checksum mismatch");
  }
  return true;
}

void WriteMessage(int fd, const std::string& payload) {
  PIVOT_CHECK_MSG(!payload.empty() && payload.size() <= kMaxMessageBytes,
                  "message size out of range");
  std::string header;
  PutU32(header, static_cast<std::uint32_t>(payload.size()));
  PutU32(header, Crc32c(payload));
  SendAll(fd, header.data(), header.size());
  SendAll(fd, payload.data(), payload.size());
}

}  // namespace pivot
