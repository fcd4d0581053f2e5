// The server's group-commit path.
//
// BENCH_journal puts the cost of one durable commit at ~145 µs, almost all
// of it fsync(2); the bare append is ~4.6 µs. When 64 sessions commit
// concurrently, 64 per-session fsyncs serialize into ~9 ms of disk time —
// batching every frame that is in flight into ONE shared-log fsync is the
// throughput unlock this module provides.
//
// Mechanics: per-session WALs are appended *without* fsync; each committed
// frame is additionally enqueued here as a (session, frame type, body)
// envelope. A dedicated worker drains the queue, appends the whole batch
// to the shared `server.gwal`, issues a single fsync, and only then wakes
// the waiting sessions — a commit is acknowledged to a client exactly when
// the group fsync covering its frame returns. On restart, recovery
// reconciles each session WAL against the group log (re-appending acked
// frames a crash kept out of the unsynced per-session file), so the shared
// fsync is the *only* durability point and no acknowledged commit is ever
// lost.
//
// Robustness:
//   * the queue is bounded — a full queue rejects with
//     ServerOverloadedError (retryable) instead of buffering unboundedly;
//   * write faults inside the batch are classified: FaultInjectedError is
//     the crash harness (state kCrashed, file left exactly as the crash
//     left it), any other I/O failure is a permanent fault after the WAL
//     layer's transient retries — the batch is rolled back off the log
//     (best effort) and the server degrades to read-only (kDegraded)
//     instead of dying;
//   * Drain() stops admissions, flushes everything queued, fsyncs and
//     joins the worker — the graceful half of SIGTERM.
#ifndef PIVOT_SERVER_GROUP_COMMIT_H_
#define PIVOT_SERVER_GROUP_COMMIT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "pivot/persist/filelock.h"
#include "pivot/persist/wal.h"

namespace pivot {

struct GroupCommitOptions {
  // fsync the shared log before acknowledging commits. Off = bench mode
  // (durability left to the kernel), the same trade as a no-op JournalAck.
  bool fsync = true;
  // One fsync per *batch* (the whole point). false = one fsync per frame,
  // the per-commit baseline bench_server A/Bs against.
  bool group_fsync = true;
  // Bound on frames queued but not yet on disk; beyond it Commit rejects
  // with ServerOverloadedError.
  int max_queue = 256;
};

struct GroupCommitStats {
  std::uint64_t frames = 0;         // frames appended to the shared log
  std::uint64_t batches = 0;        // batches written
  std::uint64_t fsyncs = 0;         // fsync(2) calls issued
  std::uint64_t max_batch = 0;      // largest batch observed
  std::uint64_t rejected_full = 0;  // Commit rejections (queue full)
  std::uint64_t compactions = 0;    // retention rewrites completed
};

// Decodes/encodes the kGroup envelope body. Two record shapes share the
// frame type:
//   "g" <session> <frame type> <body>   — a group-committed frame
//   "m" <session> <dropped>             — a retention mark: compaction
//       dropped the session's first <dropped> txn envelopes (cumulative
//       count; a later mark supersedes an earlier one). Reconciliation
//       accepts that many leading session-WAL txn frames without a group
//       counterpart — they were verified durable in the per-session file
//       before the envelopes were reclaimed.
std::string EncodeGroupFrame(const std::string& session, FrameType type,
                             const std::string& body);
std::string EncodeGroupMark(const std::string& session, std::uint64_t dropped);
struct GroupFrame {
  std::string session;
  FrameType type = FrameType::kTxn;
  std::string body;
  bool mark = false;          // true: a retention mark, body/type unused
  std::uint64_t dropped = 0;  // mark only: cumulative dropped txn envelopes
};
GroupFrame DecodeGroupFrame(const std::string& body);  // throws ProgramError

class GroupCommitLog {
 public:
  enum class Failure { kNone, kDegraded, kCrashed };

  // `create` truncates/initializes the file; otherwise appends after the
  // (already truncated to valid) end. Holds the journal flock for the
  // object's lifetime. `on_failure` runs once, on the worker thread, when
  // the log transitions into kDegraded/kCrashed.
  GroupCommitLog(const std::string& path, bool create,
                 GroupCommitOptions options,
                 std::function<void(Failure)> on_failure);
  ~GroupCommitLog();
  GroupCommitLog(const GroupCommitLog&) = delete;
  GroupCommitLog& operator=(const GroupCommitLog&) = delete;

  // Blocks until the batch containing this frame is durable (group fsync
  // returned). Throws ServerOverloadedError (queue full),
  // ServerShuttingDownError (racing Drain/shutdown; retryable),
  // ServerDegradedError (log failed), or the
  // crash-harness FaultInjectedError.
  void Commit(const std::string& session, FrameType type,
              const std::string& body);

  // Stops admitting, flushes every queued frame — including a batch the
  // worker already holds in flight, whose group fsync must complete before
  // "drained" is reported — fsyncs, joins the worker. Idempotent; later
  // Commit calls fail with ServerShuttingDownError.
  void Drain();

  // Retention: rewrites the log, dropping each session's first
  // `watermarks[session]` txn envelopes (counted from the log's logical
  // start, i.e. including envelopes reclaimed by earlier passes) and
  // recording the new cumulative count in a retention mark. The caller
  // vouches that those envelopes are durable (fsynced) in the session's
  // own WAL — that is the entire safety argument for reclaiming them.
  // Genesis envelopes are always kept. The rewrite goes to
  // `<path>.compact`, is fsynced, and renamed over the log atomically;
  // a crash at any byte leaves the complete old log or the complete new
  // one. Runs on the worker thread (the writer is worker-owned); blocks
  // until the pass completes and rethrows its failure, if any.
  void Compact(std::map<std::string, std::uint64_t> watermarks);

  // Current log size in bytes (maintained by the worker; safe to read from
  // any thread). The size-threshold trigger for retention passes.
  std::uint64_t bytes() const {
    return log_bytes_.load(std::memory_order_acquire);
  }

  Failure failure() const;
  GroupCommitStats stats() const;

 private:
  struct Ticket {
    std::string session;
    FrameType type;
    std::string body;
    bool done = false;
    std::exception_ptr error;
  };

  void WorkerLoop();
  // Runs one retention rewrite on the worker thread. Returns the error to
  // hand the requester (nullptr on success).
  std::exception_ptr DoCompact(
      const std::map<std::string, std::uint64_t>& watermarks);
  // Marks the log failed and fails `batch` + everything queued. Called on
  // the worker thread with mu_ NOT held.
  void FailAll(Failure failure, std::exception_ptr error,
               std::deque<std::shared_ptr<Ticket>>& batch);

  const std::string path_;
  const GroupCommitOptions options_;
  const std::function<void(Failure)> on_failure_;
  FileLock lock_;
  WalWriter writer_;  // worker-thread only (after construction)
  std::atomic<std::uint64_t> log_bytes_{0};

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker waits for frames / stop
  std::condition_variable done_cv_;   // committers wait for their ticket
  std::deque<std::shared_ptr<Ticket>> queue_;
  // True while the worker holds a swapped-out batch whose tickets are not
  // all resolved yet — Drain must wait this out, not just an empty queue.
  bool inflight_ = false;
  // Pending retention request (one at a time; see Compact).
  std::optional<std::map<std::string, std::uint64_t>> compact_request_;
  bool compact_active_ = false;
  bool compact_done_ = false;
  std::exception_ptr compact_error_;
  bool draining_ = false;
  bool stop_ = false;
  Failure failure_ = Failure::kNone;
  std::exception_ptr failure_error_;
  GroupCommitStats stats_;

  std::thread worker_;  // last member: starts after everything else exists
};

}  // namespace pivot

#endif  // PIVOT_SERVER_GROUP_COMMIT_H_
