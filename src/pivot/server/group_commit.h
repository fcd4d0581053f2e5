// The server's group-commit path.
//
// BENCH_journal puts the cost of one durable commit at ~145 µs, almost all
// of it the sync; the bare append is ~4.6 µs. When 64 sessions commit
// concurrently, 64 per-session syncs serialize — batching every commit
// that is in flight under as few syncs as possible is the throughput
// unlock this module provides.
//
// Mechanics: each session's journal appends its frame to its own WAL
// without syncing, then hands the WAL's writer to Commit and blocks. A
// dedicated worker drains the queue as one batch and makes the batch
// durable with the cheapest sync that covers it, chosen from the batch
// itself:
//   * every ticket on one file: fdatasync that file (WalWriter::Sync);
//   * several files: one syncfs(2) on the data directory, which covers
//     every file in it.
// Only then does it wake the waiting sessions — a commit is acknowledged
// to a client exactly when the sync covering its frame returns. The
// session WALs are the only log: there is nothing to reconcile at
// restart, and a frame that reached its WAL but was never synced is at
// most the one in-flight operation of its session.
//
// Robustness:
//   * the queue is bounded — a full queue rejects with
//     ServerOverloadedError (retryable) instead of buffering unboundedly;
//   * sync faults inside the batch are classified: FaultInjectedError is
//     the crash harness (state kCrashed, files left exactly as the crash
//     left them), any other I/O failure is a permanent fault after the WAL
//     layer's transient retries — every waiting journal rolls its frame
//     back off its file and the server degrades to read-only (kDegraded)
//     instead of dying;
//   * Drain() stops admissions, syncs everything queued and joins the
//     worker — the graceful half of SIGTERM.
#ifndef PIVOT_SERVER_GROUP_COMMIT_H_
#define PIVOT_SERVER_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "pivot/persist/wal.h"

namespace pivot {

struct GroupCommitOptions {
  // Sync before acknowledging commits. Off = bench mode (durability left
  // to the kernel), the same trade as a no-op JournalAck.
  bool fsync = true;
  // One sync per *batch* (the whole point). false = one fdatasync per
  // commit, of its own file: the per-commit baseline bench_server A/Bs
  // against.
  bool group_fsync = true;
  // Bound on commits queued but not yet durable; beyond it Commit rejects
  // with ServerOverloadedError.
  int max_queue = 256;
};

struct GroupCommitStats {
  std::uint64_t frames = 0;         // commits acknowledged
  std::uint64_t batches = 0;        // batches made durable
  std::uint64_t fsyncs = 0;         // sync calls issued (fdatasync or syncfs)
  std::uint64_t max_batch = 0;      // largest batch observed
  std::uint64_t rejected_full = 0;  // Commit rejections (queue full)
};

class GroupCommitter {
 public:
  enum class Failure { kNone, kDegraded, kCrashed };

  // `data_dir` holds every file committed through this object; it is
  // opened once, for syncfs. `on_failure` runs once, on the worker thread,
  // with a reason, when the committer transitions into kDegraded/kCrashed.
  GroupCommitter(
      const std::string& data_dir, GroupCommitOptions options,
      std::function<void(Failure, const std::string& reason)> on_failure);
  ~GroupCommitter();
  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  // Blocks until `writer`'s file is durable up to its current end (the
  // batch's sync returned). The caller must not touch `writer` until this
  // returns. Throws ServerOverloadedError (queue full),
  // ServerShuttingDownError (racing Drain/shutdown; retryable),
  // ServerDegradedError (a sync failed), or the crash-harness
  // FaultInjectedError.
  void Commit(WalWriter& writer);

  // Stops admitting, makes every queued commit durable — including a batch
  // the worker already holds in flight, whose sync must complete before
  // "drained" is reported — and joins the worker. Idempotent; later
  // Commit calls fail with ServerShuttingDownError.
  void Drain();

  Failure failure() const;
  GroupCommitStats stats() const;

 private:
  struct Ticket {
    WalWriter* writer = nullptr;
    bool done = false;
    std::exception_ptr error;
  };
  using Batch = std::deque<std::shared_ptr<Ticket>>;

  void WorkerLoop();
  // Makes every file in `batch` durable; throws what the sync threw.
  void SyncBatch(const Batch& batch);
  // Marks the committer failed and fails `batch` + everything queued.
  // Called on the worker thread with mu_ NOT held.
  void FailAll(Failure failure, const std::string& reason,
               std::exception_ptr error, Batch& batch);

  const GroupCommitOptions options_;
  const std::function<void(Failure, const std::string&)> on_failure_;
  const int dir_fd_;  // the data directory, for syncfs

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker waits for tickets / stop
  std::condition_variable done_cv_;   // committers wait for their ticket
  Batch queue_;
  // True while the worker holds a swapped-out batch whose tickets are not
  // all resolved yet — Drain must wait this out, not just an empty queue.
  bool inflight_ = false;
  bool draining_ = false;
  bool stop_ = false;
  Failure failure_ = Failure::kNone;
  std::exception_ptr failure_error_;
  GroupCommitStats stats_;

  std::thread worker_;  // last member: starts after everything else exists
};

}  // namespace pivot

#endif  // PIVOT_SERVER_GROUP_COMMIT_H_
