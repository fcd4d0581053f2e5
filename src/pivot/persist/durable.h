// The durable write-ahead journal: a Session CommitListener that appends
// every committed operation as a checksummed frame *before* the in-memory
// commit is acknowledged, plus crash-consistent recovery. It is the only
// writer of session journals: a standalone session uses it with the
// default ack (sync the file after every frame), and the server
// (server/server.h) with an ack that hands the file to its group-commit
// worker and blocks until the worker has synced it.
//
// Protocol per operation (see core/commit_hook.h):
//   OnCommit    — append the txn frame and run the ack (see JournalAck);
//                 a failure throws and the session rolls the operation
//                 back;
//   OnCommitted — optionally append a full-session snapshot (policy:
//                 every `snapshot_interval` transactions). Snapshots are
//                 pure read optimization: recovery is snapshot +
//                 tail-replay instead of whole-history replay, and a torn
//                 snapshot is just a truncatable tail.
//
// Failure policy, one rule per case:
//   * a write fault on an attached journal — any permanent write(2) or
//     sync failure of a txn frame, a snapshot, a Checkpoint or a
//     compaction — poisons it: the file may now end mid-frame, and frames
//     appended behind a tear would be invisible to the scanner. The call
//     throws JournalWriteError and so does every later commit; recover the
//     file to go on. A txn frame's operation is rolled back by the
//     session; a snapshot or compaction fault after a commit does not
//     fail that commit (it is already durable and acknowledged) — the
//     next commit reports it;
//   * an ack that refuses a written txn frame (overload, deadline, a
//     failed group sync) rolls the frame back off the file (ftruncate to
//     where it started) and rethrows the ack's error: nothing was
//     acknowledged, the session rolls the operation back, and the journal
//     stays usable. Only if the rollback fails is the journal poisoned;
//   * a failed Create leaves no journal behind: the half-written file and
//     its `.lock` are removed, so the name can be created again;
//   * an injected crash (FaultInjectedError) is the crash harness: the
//     file stays exactly as the crash left it and the journal is poisoned.
//
// Recovery scans the file, truncates the torn/corrupt tail (CRC or length
// failure — never replayed, never guessed at), rebuilds the base state from
// the last valid snapshot (or the genesis source), re-executes the tail's
// operation descriptors through the ordinary Session API, verifies the
// per-frame state digests, and revalidates with the cross-layer Validator.
#ifndef PIVOT_PERSIST_DURABLE_H_
#define PIVOT_PERSIST_DURABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/persist/filelock.h"
#include "pivot/persist/wal.h"
#include "pivot/support/diagnostics.h"

namespace pivot {

struct PersistOptions {
  // > 0: append a full-session snapshot frame after every N committed
  // transactions. 0 = never (recovery replays the whole history).
  int snapshot_interval = 0;
  // After each snapshot, rewrite the journal in place (genesis + that
  // snapshot + the uncovered tail; everything the snapshot covers is
  // dropped) via an atomic tmp-file rename — see CompactJournalFile. This
  // is what makes journal size proportional to live history instead of
  // monotonically increasing.
  bool compact = false;
};

// What makes a genesis or txn frame durable before the operation it
// carries is acknowledged. Empty (the default): the journal syncs its own
// file after every frame, snapshots included. Otherwise the journal
// appends without syncing and calls the ack with the type of the frame
// just written and the writer holding it; the ack returns once the file
// is durable up to that frame (the server's group-commit worker syncs it,
// batched with other sessions' files) or throws to fail the operation.
// The writer is only the ack's to sync, and only until it returns. A
// no-op ack leaves durability to the kernel — the frame order stays
// correct, but a power failure may lose the tail (benchmarks use it to
// leave sync cost out).
using JournalAck = std::function<void(FrameType type, WalWriter& writer)>;

// A permanent write fault on an attached journal (transient retries
// exhausted; see persist/wal.h), or a commit refused by a poisoned
// journal. The server turns it into degraded mode.
class JournalWriteError : public ProgramError {
 public:
  explicit JournalWriteError(const std::string& what)
      : ProgramError("journal write fault: " + what) {}
};

struct JournalRecoveryReport;

class DurableJournal final : public CommitListener {
 public:
  // Starts journaling `session` into a fresh file at `path` (truncating
  // any existing file): writes the header and the genesis frame, acks it,
  // then installs itself as the session's commit listener. The session
  // must be pristine (no history, no journal records) — the genesis source
  // is what replay rebuilds ids from — and must outlive the returned
  // object. Throws ProgramError on I/O failure or a non-persistable
  // session (custom interaction tables).
  static std::unique_ptr<DurableJournal> Create(Session& session,
                                                const std::string& path,
                                                PersistOptions options = {},
                                                JournalAck ack = {});

  // Resumes journaling an existing file: appends after the current end,
  // which must already be truncated to a valid prefix. The session must
  // hold exactly the state the file replays to. This form finds the
  // snapshot recovery would use by decoding snapshot images; the form
  // below takes it from the recovery that just ran instead.
  static std::unique_ptr<DurableJournal> Reattach(Session& session,
                                                  const std::string& path,
                                                  PersistOptions options = {},
                                                  JournalAck ack = {});
  // For a session RecoverSession(path) just rebuilt: the snapshot cadence
  // resumes from `recovered` (the txns it replayed are exactly those no
  // usable snapshot covers), so reattaching decodes no image.
  static std::unique_ptr<DurableJournal> Reattach(
      Session& session, const std::string& path,
      const JournalRecoveryReport& recovered, PersistOptions options = {},
      JournalAck ack = {});

  ~DurableJournal() override;
  DurableJournal(const DurableJournal&) = delete;
  DurableJournal& operator=(const DurableJournal&) = delete;

  void OnCommit(const TxnDescriptor& desc) override;
  void OnCommitted(const TxnDescriptor& desc) override;

  // Poisoned by a write fault or an injected crash (see the failure
  // policy): no further frame may be appended. Recover the file instead.
  bool broken() const { return broken_; }

  // Txn frames in the file (compaction rebases this count).
  std::uint64_t txns_written() const { return txns_; }
  std::uint64_t snapshots_written() const { return snapshots_; }
  std::uint64_t compactions() const { return compactions_; }
  // Current journal file size (the next append offset).
  std::uint64_t journal_bytes() const { return writer_.offset(); }

  // Makes the file the sole authority for the session's state: a final
  // snapshot synced to the file (a bare sync when the last snapshot
  // already covers everything). Throws JournalWriteError when poisoned or
  // on a permanent fault (which poisons).
  void Checkpoint();

  // Rewrites the journal down to genesis + the latest snapshot + the
  // frames after it (CompactJournalFile) and reopens the file. Runs
  // automatically after each snapshot when PersistOptions::compact is
  // set; public for explicit calls (tools, tests).
  void Compact();

 private:
  DurableJournal(Session& session, std::string path, FileLock lock,
                 WalWriter writer, PersistOptions options, JournalAck ack);
  static std::unique_ptr<DurableJournal> Attach(
      Session& session, const std::string& path,
      const JournalRecoveryReport* recovered, PersistOptions options,
      JournalAck ack);
  // Appends one txn or snapshot frame under the failure policy; only txn
  // frames are acked.
  void Append(FrameType type, const std::string& body, bool fsync);
  void WriteSnapshot(bool fsync);
  void ThrowIfBroken() const;

  Session& session_;
  const std::string path_;
  // Held for the journal's lifetime: no second process (or second journal
  // in this process) may append to the same WAL (see persist/filelock.h).
  // flock() follows the separate `<path>.lock` file, so the compaction
  // rename of the journal itself does not disturb it.
  FileLock lock_;
  WalWriter writer_;
  const PersistOptions options_;
  const JournalAck ack_;
  // Txn frames in the file: committed txns minus those compaction dropped.
  std::uint64_t txns_ = 0;
  std::uint64_t since_snapshot_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t compactions_ = 0;
  bool broken_ = false;
};

// Rewrites the journal at `path` down to genesis + its newest snapshot +
// the frames after it, dropping every txn frame the snapshot covers, and
// returns how many it dropped (0 = nothing to do: no snapshot, an anchor
// the preceding frames do not corroborate, or a file that is not a clean
// journal — left for recovery). The rewrite goes to `<path>.compact`, is
// synced, and is renamed over the journal atomically, and the rename is
// synced to the directory: a crash at any point (the persist.compact.*
// fault points) leaves the complete old file or the complete new one, and
// a stale tmp is removed by the next attach or recovery. The caller holds
// the journal's flock and no writer may append meanwhile.
std::uint64_t CompactJournalFile(const std::string& path);

// What recovery found and did. Golden-tested: ToString() is part of the
// interface.
struct JournalRecoveryReport {
  std::uint64_t frames_scanned = 0;  // valid frames (genesis included)
  std::uint64_t txns_in_journal = 0; // valid txn frames
  std::uint64_t txns_replayed = 0;   // re-executed (tail after snapshot)
  bool used_snapshot = false;
  std::uint64_t snapshot_txns = 0;   // txn frames the snapshot covered
  bool truncated = false;
  std::uint64_t truncated_at = 0;    // file offset of the cut
  std::string truncation_reason;
  bool validator_ok = false;
  std::vector<std::string> errors;   // non-fatal anomalies, in order

  std::string ToString() const;
};

struct RecoverResult {
  std::unique_ptr<Session> session;
  JournalRecoveryReport report;
};

// Free-function form of Session::Recover. Throws ProgramError when the
// file is unreadable, is not a journal, carries a newer format version
// than this build (no forward compatibility — see kJournalFormatVersion),
// or holds no usable genesis frame. Corrupt/torn tails do not throw: they
// are truncated and reported.
RecoverResult RecoverSession(const std::string& path);

}  // namespace pivot

#endif  // PIVOT_PERSIST_DURABLE_H_
