// Wire protocol of the multi-session PIVOT server.
//
// Transport: length-prefixed binary messages over a byte stream (a UNIX
// socket in the daemon, a socketpair in tests):
//
//   message := <u32 payload length> <u32 CRC32C(payload)> <payload>
//
// little-endian, the same framing discipline as the WAL. The payload is a
// deterministic token stream (persist/token.h) — the same codec family the
// durable journal uses, so a request can carry a full TxnDescriptor
// (persist/wire's EncodeTxn output) as its operation body and the server
// replays it through the ordinary Session API.
//
// Every response carries a typed status code. `retryable` marks errors
// the client may retry with backoff (admission-control rejections, a
// draining server); precondition failures and degraded-mode refusals are
// not retryable — retrying cannot help until the operator intervenes.
#ifndef PIVOT_SERVER_PROTOCOL_H_
#define PIVOT_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pivot/support/diagnostics.h"
#include "pivot/support/ids.h"

namespace pivot {

inline constexpr std::uint32_t kServerProtocolVersion = 1;
// Frame-size guard: a corrupt length prefix must not drive allocation.
inline constexpr std::uint32_t kMaxMessageBytes = 64u << 20;

enum class ServerOp {
  kPing = 0,
  kOpen,      // create a session from inline source (refuses existing WALs)
  kRecover,   // recover a session's WAL from disk and host it
  kClose,     // stop hosting (the WAL stays for a later kRecover)
  kApply,     // apply opportunity [op_index] of a transform kind
  kTxn,       // replay a persist/wire TxnDescriptor (applies, undos, edits)
  kUndo,      // undo one stamp
  kUndoSet,   // batch-undo a stamp set
  kUndoLast,  // undo the most recent live transformation
  kCanUndo,   // undo-planning query; served even in degraded mode
  kSource,    // current program text
  kHistory,   // rendered transformation history
  kStats,     // server-wide counters, mode, group-commit statistics
  kSleep,     // test-only: hold the session lock for N ms (admission /
              // deadline tests); refused unless ServerOptions enables it
  kRetiredCompact,  // was the group-log retention pass; the slot keeps
                    // kShutdown's wire value, the server answers
                    // kBadRequest
  kShutdown,  // graceful drain
};

const char* ServerOpName(ServerOp op);

enum class StatusCode {
  kOk = 0,
  kBadRequest,        // malformed request, unknown op, bad session name
  kNoSuchSession,
  kSessionExists,     // kOpen over a live session or an existing WAL
  kPrecondition,      // the operation itself failed (stale site, blocked
                      // undo, ...); the session rolled back and is clean
  kOverloaded,        // admission control: queue/inflight bound hit; retry
  kDeadlineExceeded,  // the per-request deadline expired server-side
  kDegraded,          // read-only mode after a permanent write fault:
                      // commits refused, reads still served
  kShuttingDown,      // draining: no new work admitted
  kCrashed,           // the server hit an unrecoverable fault; restart and
                      // recover
};

const char* StatusCodeName(StatusCode code);
bool StatusRetryable(StatusCode code);

struct Request {
  ServerOp op = ServerOp::kPing;
  std::string session;
  // Server-side deadline budget for this request, 0 = none. The clock
  // starts at admission; the deadline is enforced while queued for the
  // session lock, before execution, and before the commit is enqueued for
  // group commit (the point of no return).
  std::uint32_t deadline_ms = 0;
  std::string source;            // kOpen: initial program text
  int kind = -1;                 // kApply: TransformKind index
  std::uint32_t op_index = 0;    // kApply: which opportunity of that kind
  std::vector<OrderStamp> stamps;  // kUndo (1) / kUndoSet / kCanUndo (1)
  std::string txn_body;          // kTxn: persist/wire EncodeTxn payload
  std::uint64_t sleep_ms = 0;    // kSleep
};

struct Response {
  StatusCode status = StatusCode::kOk;
  bool retryable = false;
  std::string error;        // human-readable failure detail
  OrderStamp stamp = 0;     // produced stamp (kApply, kUndoLast)
  std::uint64_t value = 0;  // op-specific count (undone transforms, CanUndo)
  std::string text;         // kSource / kHistory / kStats / recovery report
};

// Token-stream codecs; Decode* throw ProgramError on malformed payloads.
std::string EncodeRequest(const Request& req);
Request DecodeRequest(const std::string& payload);
std::string EncodeResponse(const Response& resp);
Response DecodeResponse(const std::string& payload);

// Framed transport over an fd. ReadMessage returns false on a clean EOF at
// a message boundary and throws ProgramError on truncation, a CRC
// mismatch, an oversized length, or an I/O error (EINTR is retried).
// WriteMessage never raises SIGPIPE — a vanished peer surfaces as
// ProgramError.
bool ReadMessage(int fd, std::string* payload);
void WriteMessage(int fd, const std::string& payload);

// A read deadline expired (see the timed ReadMessage overload). Distinct
// from ProgramError so the server can count slow-client disconnections
// separately from transport garbage.
class ReadTimeoutError : public ProgramError {
 public:
  explicit ReadTimeoutError(const std::string& what)
      : ProgramError("read timeout: " + what) {}
};

// ReadMessage with per-message deadlines, for network transports where a
// peer may stall indefinitely. `idle_ms` bounds the wait for a message's
// FIRST byte (an idle but healthy connection); `frame_ms` bounds the time
// from that first byte until the complete message has arrived — the
// slowloris guard: a client dribbling one byte per poll interval cannot
// pin a server thread forever. Either 0 disables that bound. Throws
// ReadTimeoutError when a deadline expires (possibly mid-message — the
// connection is no longer framable and must be dropped).
bool ReadMessage(int fd, std::string* payload, int idle_ms, int frame_ms);

// Typed failures of the server's commit path; Execute maps them to the
// matching status codes.
class ServerOverloadedError : public ProgramError {
 public:
  explicit ServerOverloadedError(const std::string& what)
      : ProgramError("overloaded: " + what) {}
};

class DeadlineExceededError : public ProgramError {
 public:
  explicit DeadlineExceededError(const std::string& what)
      : ProgramError("deadline exceeded: " + what) {}
};

class ServerDegradedError : public ProgramError {
 public:
  explicit ServerDegradedError(const std::string& what)
      : ProgramError("degraded (read-only): " + what) {}
};

// A commit raced Drain()/shutdown. Maps to kShuttingDown (retryable): the
// client should retry against the restarted server, unlike a write-fault
// degradation where retrying cannot help.
class ServerShuttingDownError : public ProgramError {
 public:
  explicit ServerShuttingDownError(const std::string& what)
      : ProgramError("shutting down: " + what) {}
};

}  // namespace pivot

#endif  // PIVOT_SERVER_PROTOCOL_H_
