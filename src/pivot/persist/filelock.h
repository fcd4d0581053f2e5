// Advisory per-journal lock files.
//
// Two writers appending to the same WAL interleave frames and corrupt the
// history silently; the classic way to get there is a server restart racing
// a stale instance, or an operator running Recover against a journal a
// daemon still owns. Every journal `<path>` therefore has a companion lock
// file `<path>.lock` held with flock(2) LOCK_EX for as long as a writer
// (DurableJournal — standalone or a server session's) or a recovery pass
// owns the journal; a server holds `<data_dir>/server.lock` the same way. flock locks conflict per open file
// description, so the guard works between processes *and* between two
// owners inside one process; they evaporate when the holder dies, so a
// crashed process never leaves a stale lock behind.
#ifndef PIVOT_PERSIST_FILELOCK_H_
#define PIVOT_PERSIST_FILELOCK_H_

#include <string>

namespace pivot {

class FileLock {
 public:
  // Acquires `<journal_path>.lock` (creating it if needed). Throws
  // ProgramError naming the journal when the lock is already held by
  // another owner, or on I/O failure.
  static FileLock Acquire(const std::string& journal_path);

  // True when some owner currently holds the lock (probe: acquire
  // non-blocking, release immediately).
  static bool IsHeld(const std::string& journal_path);

  FileLock(FileLock&& other) noexcept;
  FileLock& operator=(FileLock&&) = delete;
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock();

  void Release();

 private:
  explicit FileLock(int fd) : fd_(fd) {}

  int fd_ = -1;
};

}  // namespace pivot

#endif  // PIVOT_PERSIST_FILELOCK_H_
