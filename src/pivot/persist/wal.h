// Write-ahead log framing: append, scan, truncate.
//
// File layout:
//
//   "PIVOTWAL" <u32 version>                          (12-byte header)
//   frame*
//
//   frame := <u32 payload length> <u32 CRC32C(payload)> <payload>
//   payload[0] = FrameType, rest is type-specific text
//
// All integers little-endian. A frame is trusted only if its length fits
// inside the file and its CRC matches; scanning stops at the first frame
// that fails either test, and everything from that offset on is a torn or
// corrupt tail to be truncated. A frame is written in several write(2)
// calls with fault points between them, so an injected crash leaves a
// genuinely torn frame on disk — exactly what a real crash mid-write does.
//
// Transient-fault policy: every write(2) and sync call runs inside a retry
// loop that absorbs EINTR, EAGAIN and short writes with a small bounded
// backoff (kMaxIoAttempts attempts). Only when the budget is exhausted —
// or the errno is not transient — does the call throw ProgramError; a
// short write is therefore a retry, never a poisoned journal. Tests drive
// the loop with FaultInjector::ArmTransient on the non-throwing points
// "wal.write.transient" / "wal.fsync.transient" (one consultation per
// attempt): arming fewer failures than the budget must be invisible to the
// caller, arming more models a permanent I/O fault.
#ifndef PIVOT_PERSIST_WAL_H_
#define PIVOT_PERSIST_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pivot {

// Bumped when the header or frame encoding changes incompatibly. Recovery
// refuses files with a newer version than it was built for (no forward
// compatibility); older versions would be migrated explicitly, never
// guessed at. Version history:
//   1 — genesis/txn/snapshot/group frames;
//   2 — adds the delta-snapshot frame, type 5 (a version-1 reader would
//       mis-scan it as an unknown type and silently truncate the tail
//       there, hence the bump: old readers refuse loudly instead). No
//       longer written; see kRetiredDelta;
//   3 — snapshot bodies may carry a "base <n>" clause (cumulative txn
//       frames dropped from beneath the file by compaction). Older
//       servers aligned their group log against it; current builds no
//       longer write it, and the decoder still accepts it, so version-3
//       files recover unchanged.
inline constexpr std::uint32_t kJournalFormatVersion = 3;

inline constexpr char kWalMagic[8] = {'P', 'I', 'V', 'O',
                                      'T', 'W', 'A', 'L'};

// Attempts per write(2)/sync call before a transient failure is escalated
// to ProgramError (see the transient-fault policy above).
inline constexpr int kMaxIoAttempts = 16;

enum class FrameType : unsigned char {
  kGenesis = 1,   // session options + initial source; always frame 0
  kTxn = 2,       // one committed transaction (a TxnDescriptor + digest)
  kSnapshot = 3,  // full session image; recovery replays only frames after
                  // the last valid snapshot
  // 4 is reserved: older servers wrote group-log envelopes with it, in a
  // shared server.gwal that current builds refuse (see server/server.h).
  kRetiredDelta = 5,  // a snapshot image encoded as a delta against the
                      // previous one, written by older builds. Still a
                      // valid frame (so an old journal keeps its tail),
                      // but recovery and compaction skip it: a full
                      // snapshot or the genesis before it, plus the txn
                      // frames, already cover its state
};

// Appends frames to a journal file via POSIX fd I/O. The writer does not
// parse existing content — Create truncates, Append picks up at the end.
class WalWriter {
 public:
  // Both throw ProgramError when the file cannot be opened. Create writes
  // the file header (magic + version) and syncs it; with `sync_dir` it then
  // syncs the parent directory so the new name survives a power loss
  // (crossing "persist.create.dir.synced"). A tmp file that is renamed
  // into place later skips that: the rename is what must be made durable.
  static WalWriter Create(const std::string& path, bool sync_dir = true);
  static WalWriter Append(const std::string& path);

  WalWriter(WalWriter&& other) noexcept;
  // Move assignment closes the current fd and adopts the other writer's.
  // Compaction relies on this: after renaming the rewritten file over the
  // journal, the stale fd (now referencing the replaced inode) is swapped
  // for one opened on the new file.
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  // Appends one frame. `point_prefix` names the fault points crossed while
  // the frame is partially on disk ("<prefix>.header.post", "<prefix>.mid",
  // "<prefix>.post") and after the fsync ("<prefix>.fsync.post"); a fault
  // at any of them leaves a torn (or un-acked but durable) frame, the two
  // states crash recovery must handle. When `fsync` is false the frame is
  // left to the kernel (bench mode; crash consistency then depends on the
  // filesystem).
  void AppendFrame(FrameType type, const std::string& body, bool fsync,
                   const std::string& point_prefix);

  // fdatasync(2) with the transient retry loop; crosses "<point>" after
  // the sync when `point` is non-empty (group commit's crash point between
  // batch durability and client acknowledgement). The journal is
  // append-only, so fdatasync's size update is all the metadata a reader
  // needs.
  void Sync(const std::string& point = {});

  // File offset appends go to next (header included). Lets a caller record
  // the pre-append length and roll a fully written but never-acknowledged
  // frame back with TruncateTo.
  std::uint64_t offset() const { return offset_; }

  // ftruncate(2) back to `offset` (≤ the current offset); subsequent
  // appends continue from there. Throws ProgramError on I/O error.
  void TruncateTo(std::uint64_t offset);

  void Close();

 private:
  explicit WalWriter(int fd, std::uint64_t offset)
      : fd_(fd), offset_(offset) {}
  void WriteAll(const void* data, std::size_t len);

  int fd_ = -1;
  std::uint64_t offset_ = 0;
};

struct WalFrame {
  FrameType type;
  std::string body;          // payload minus the type byte
  std::uint64_t end_offset;  // file offset just past this frame
};

struct WalScanResult {
  bool header_ok = false;         // magic matched and version readable
  std::uint32_t version = 0;      // file's format version (when readable)
  std::vector<WalFrame> frames;   // the valid prefix
  std::uint64_t valid_bytes = 0;  // prefix length; beyond lies garbage
  std::uint64_t file_bytes = 0;
  // Why the scan stopped before the end of file, empty when it did not
  // ("torn frame header", "frame exceeds file", "checksum mismatch",
  // "empty payload", "unknown frame type").
  std::string truncation_reason;
};

// Reads the whole file and validates frame by frame. Never throws on
// corrupt content — corruption is data, reported in the result. Throws
// ProgramError only when the file cannot be read at all.
WalScanResult ScanWal(const std::string& path);

// Cuts the file down to its valid prefix. Throws ProgramError on I/O error.
void TruncateWal(const std::string& path, std::uint64_t valid_bytes);

// fsync(2) of the directory holding `path`, so a created or renamed entry
// there is durable. Same retry loop as WalWriter::Sync.
void SyncParentDir(const std::string& path);

// syncfs(2) of the filesystem holding the open directory `dir_fd`: one
// call makes every file written there durable. Same retry loop and
// fault-point style as WalWriter::Sync.
void SyncFileSystem(int dir_fd, const std::string& point = {});

}  // namespace pivot

#endif  // PIVOT_PERSIST_WAL_H_
