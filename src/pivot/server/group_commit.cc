#include "pivot/server/group_commit.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "pivot/server/protocol.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

int OpenDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    throw ProgramError("group commit: cannot open " + dir + ": " +
                       std::strerror(errno));
  }
  return fd;
}

}  // namespace

GroupCommitter::GroupCommitter(
    const std::string& data_dir, GroupCommitOptions options,
    std::function<void(Failure, const std::string&)> on_failure)
    : options_(options),
      on_failure_(std::move(on_failure)),
      dir_fd_(OpenDir(data_dir)),
      worker_([this] { WorkerLoop(); }) {}

GroupCommitter::~GroupCommitter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  worker_.join();
  ::close(dir_fd_);
}

void GroupCommitter::Commit(WalWriter& writer) {
  auto ticket = std::make_shared<Ticket>();
  ticket->writer = &writer;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (failure_ != Failure::kNone) std::rethrow_exception(failure_error_);
    if (draining_ || stop_) {
      // Not a fault: the server is draining. Retryable, so a commit racing
      // SIGTERM is retried against the restarted server instead of being
      // reported as a (non-retryable) degradation.
      throw ServerShuttingDownError("group commit is draining");
    }
    if (queue_.size() >= static_cast<std::size_t>(options_.max_queue)) {
      ++stats_.rejected_full;
      throw ServerOverloadedError(
          "group-commit queue is full (" +
          std::to_string(options_.max_queue) + " commits pending)");
    }
    queue_.push_back(ticket);
  }
  queue_cv_.notify_all();

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return ticket->done; });
  if (ticket->error) std::rethrow_exception(ticket->error);
}

void GroupCommitter::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  queue_cv_.notify_all();
  // The worker keeps syncing batches until the queue is empty; committers
  // already queued still get their acks. An empty queue alone is not
  // "drained": the worker may hold a swapped-out batch whose sync has not
  // returned yet, and reporting drained before that sync would let the
  // process exit with acknowledged-to-be-written frames still in flight.
  done_cv_.wait(lock, [&] { return queue_.empty() && !inflight_; });
  stop_ = true;
  queue_cv_.notify_all();
}

GroupCommitter::Failure GroupCommitter::failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_;
}

GroupCommitStats GroupCommitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void GroupCommitter::FailAll(Failure failure, const std::string& reason,
                             std::exception_ptr error, Batch& batch) {
  // Report the failure upward BEFORE any waiter can observe it: a committer
  // woken below returns kDegraded to its client, and by then the server's
  // mode must already say so — callers legitimately read mode() right after
  // a degraded response. The callback is idempotent (mode CAS), so racing
  // FailAll calls are harmless.
  if (on_failure_) on_failure_(failure, reason);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failure_ == Failure::kNone) {
      failure_ = failure;
      failure_error_ = error;
    }
    // Tickets already marked done were durably synced and acknowledged;
    // only the still-pending ones (rest of the batch + everything queued)
    // carry the failure.
    for (auto& t : batch) {
      if (t->done) continue;
      t->error = error;
      t->done = true;
    }
    for (auto& t : queue_) {
      t->error = error;
      t->done = true;
    }
    queue_.clear();
    inflight_ = false;
  }
  done_cv_.notify_all();
}

void GroupCommitter::SyncBatch(const Batch& batch) {
  if (!options_.fsync) return;
  if (!options_.group_fsync) {
    // Per-commit baseline: pay one sync per commit, of its own file.
    for (const auto& t : batch) {
      t->writer->Sync();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.fsyncs;
    }
    return;
  }
  // THE group commit: one sync covers every commit in the batch. A crash
  // at sync.post is "durable but nobody acknowledged yet". One file is
  // cheapest to fdatasync; for several, one syncfs beats a row of
  // fdatasyncs (each of which waits out its own journal commit).
  WalWriter* const first = batch.front()->writer;
  bool one_file = true;
  for (const auto& t : batch) one_file = one_file && t->writer == first;
  if (one_file) {
    first->Sync("server.group.sync.post");
  } else {
    SyncFileSystem(dir_fd_, "server.group.sync.post");
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.fsyncs;
}

void GroupCommitter::WorkerLoop() {
  for (;;) {
    Batch batch;
    std::exception_ptr broken;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_
      batch.swap(queue_);
      inflight_ = true;
      if (failure_ != Failure::kNone) broken = failure_error_;
    }

    if (broken) {
      // A sync already failed: fail this batch with the stored error
      // instead of syncing behind it.
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& t : batch) {
          t->error = broken;
          t->done = true;
        }
        inflight_ = false;
      }
      done_cv_.notify_all();
      continue;
    }

    try {
      PIVOT_FAULT_POINT("server.batch.pre");
      SyncBatch(batch);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& t : batch) {
          PIVOT_FAULT_POINT("server.ack.pre");
          t->done = true;
          ++stats_.frames;
        }
        ++stats_.batches;
        if (batch.size() > stats_.max_batch) stats_.max_batch = batch.size();
        inflight_ = false;
      }
      done_cv_.notify_all();
    } catch (const FaultInjectedError& e) {
      // The crash harness: leave every file exactly as the "crash" left it
      // (recovery's scan owns any torn tail) and stop serving.
      FailAll(Failure::kCrashed, e.what(), std::current_exception(), batch);
    } catch (const ProgramError& e) {
      // Permanent sync fault (the WAL layer already absorbed transients).
      // Each waiting journal rolls its own frame back off its file, so no
      // rolled-back operation resurfaces at the next recovery.
      const std::string reason = std::string("group commit sync fault: ") +
                                 e.what();
      auto error = std::make_exception_ptr(
          ServerDegradedError(reason + "; commits are refused"));
      FailAll(Failure::kDegraded, reason, error, batch);
    }
  }
}

}  // namespace pivot
