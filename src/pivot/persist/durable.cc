#include "pivot/persist/durable.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

#include "pivot/ir/parser.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wire.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

// Best-effort removal of a leftover compaction tmp file (a crash between
// writing `<path>.compact` and the rename). The tmp is garbage by
// definition — the rename is the commit point — so it is deleted, never
// adopted.
void RemoveStaleCompactTmp(const std::string& path) {
  std::remove((path + ".compact").c_str());
}

// The newest snapshot frame whose image could be decoded and trusted.
struct SnapshotChoice {
  DecodedImage decoded;         // the image, parsed
  std::uint64_t covered = 0;    // txn frames the image covers
};

// Walks snapshot frames newest-first and returns the first one that
// decodes and whose covered count is consistent with the journal (a
// snapshot claiming to cover more transactions than the file holds would
// silently skip all replay with the digests never re-verified — it is
// treated exactly like a corrupt frame). Frames of the retired
// kRetiredDelta type are skipped: the full snapshot (or the genesis)
// before them, plus the txn frames they summarized, covers the same state.
// Appends one error per rejected candidate.
std::optional<SnapshotChoice> FindLatestUsableSnapshot(
    const std::vector<WalFrame>& frames, std::uint64_t txns_in_journal,
    std::vector<std::string>& errors) {
  for (std::size_t i = frames.size(); i-- > 1;) {
    if (frames[i].type != FrameType::kSnapshot) continue;
    try {
      SnapshotBody body = DecodeSnapshotBody(frames[i].body);
      if (body.txns > txns_in_journal) {
        throw ProgramError(
            "snapshot claims " + std::to_string(body.txns) +
            " transactions but the journal holds " +
            std::to_string(txns_in_journal));
      }
      SnapshotChoice choice;
      choice.covered = body.txns;
      choice.decoded = DecodeSessionImage(body.payload);
      return choice;
    } catch (const ProgramError& e) {
      errors.push_back("snapshot frame ignored: " + std::string(e.what()));
    }
  }
  return std::nullopt;
}

}  // namespace

// ---------------------------------------------------------------------------
// DurableJournal
// ---------------------------------------------------------------------------

DurableJournal::DurableJournal(Session& session, std::string path,
                               FileLock lock, WalWriter writer,
                               std::string genesis, PersistOptions options,
                               JournalAck ack)
    : session_(session),
      path_(std::move(path)),
      lock_(std::move(lock)),
      writer_(std::move(writer)),
      genesis_(std::move(genesis)),
      options_(options),
      ack_(std::move(ack)) {}

std::unique_ptr<DurableJournal> DurableJournal::Create(
    Session& session, const std::string& path, PersistOptions options,
    JournalAck ack) {
  if (session.options().undo.heuristic == UndoOptions::Heuristic::kCustom) {
    throw ProgramError(
        "durable journal: custom interaction tables are not persistable");
  }
  if (!session.history().records().empty() ||
      !session.journal().records().empty()) {
    throw ProgramError(
        "durable journal: attach before the first operation (replay "
        "rebuilds state from the genesis source)");
  }
  // Declared outside the try: the flock stays held while a failed create
  // unlinks its files, so no other owner can slip in between.
  FileLock lock = FileLock::Acquire(path);
  RemoveStaleCompactTmp(path);
  try {
    WalWriter writer = WalWriter::Create(path);
    PIVOT_FAULT_POINT("persist.genesis.pre");
    std::string genesis = EncodeGenesis(session.options(), session.Source());
    writer.AppendFrame(FrameType::kGenesis, genesis, /*fsync=*/!ack,
                       "persist.genesis");
    if (ack) ack(FrameType::kGenesis, writer);
    auto journal = std::unique_ptr<DurableJournal>(new DurableJournal(
        session, path, std::move(lock), std::move(writer), std::move(genesis),
        options, std::move(ack)));
    session.set_commit_listener(journal.get());
    return journal;
  } catch (const FaultInjectedError&) {
    throw;  // crash harness: the file stays exactly as the crash left it
  } catch (...) {
    // The genesis was never acknowledged, so no journal came into
    // existence. unlink(2) tolerates the still-open fd and flock.
    ::unlink(path.c_str());
    ::unlink((path + ".lock").c_str());
    throw;
  }
}

std::unique_ptr<DurableJournal> DurableJournal::Reattach(
    Session& session, const std::string& path,
    const JournalRecoveryReport& recovered, PersistOptions options,
    JournalAck ack) {
  FileLock lock = FileLock::Acquire(path);
  RemoveStaleCompactTmp(path);
  const WalScanResult scan = ScanWal(path);
  if (!scan.header_ok || scan.version > kJournalFormatVersion ||
      scan.frames.empty()) {
    throw ProgramError("durable journal: " + path +
                       " is not a journal this build can append to");
  }
  if (scan.valid_bytes != scan.file_bytes) {
    throw ProgramError("durable journal: " + path +
                       " has a torn tail; run Session::Recover first");
  }
  auto journal = std::unique_ptr<DurableJournal>(new DurableJournal(
      session, path, std::move(lock), WalWriter::Append(path),
      scan.frames[0].body, options, std::move(ack)));
  for (const WalFrame& frame : scan.frames) {
    if (frame.type == FrameType::kTxn) ++journal->txns_;
    if (frame.type == FrameType::kSnapshot) ++journal->snapshots_;
  }
  // The txns recovery replayed are exactly those no usable snapshot
  // covers: the snapshot cadence resumes from there.
  journal->since_snapshot_ =
      std::min(recovered.txns_replayed, journal->txns_);
  // Genesis alone, or genesis and one snapshot with no txn behind it (it
  // can only cover 0): a checkpoint would rewrite the same state.
  journal->checkpointed_ =
      scan.frames.size() == 1 ||
      (scan.frames.size() == 2 && scan.frames[1].type == FrameType::kSnapshot);
  session.set_commit_listener(journal.get());
  return journal;
}

DurableJournal::~DurableJournal() {
  if (session_.commit_listener() == this) {
    session_.set_commit_listener(nullptr);
  }
}

void DurableJournal::ThrowIfBroken() const {
  if (broken()) {
    throw JournalWriteError(
        "poisoned by an earlier fault (the file may end mid-frame); "
        "recover it before appending again");
  }
}

void DurableJournal::Append(FrameType type, const std::string& body,
                            bool fsync) {
  const std::uint64_t pre = writer_.offset();
  checkpointed_ = false;
  try {
    writer_.AppendFrame(type, body, fsync,
                        type == FrameType::kTxn ? "persist.txn"
                                                : "persist.snapshot");
  } catch (const FaultInjectedError&) {
    broken_ = true;
    throw;
  } catch (const ProgramError& e) {
    broken_ = true;
    throw JournalWriteError(e.what());
  }
  if (type != FrameType::kTxn || !ack_) return;
  try {
    ack_(type, writer_);
  } catch (const FaultInjectedError&) {
    broken_ = true;
    throw;
  } catch (...) {
    // Not acknowledged: the session rolls the operation back, so the
    // frame must come off the file or a later recovery would replay it.
    try {
      writer_.TruncateTo(pre);
    } catch (...) {
      broken_ = true;
    }
    throw;
  }
}

void DurableJournal::OnCommit(const TxnDescriptor& desc) {
  ThrowIfBroken();
  PIVOT_FAULT_POINT("persist.txn.pre");
  // The digest pins the state this commit produces; recovery verifies it
  // after replaying the frame.
  Append(FrameType::kTxn, EncodeTxn(desc, ComputeDigest(session_)),
         /*fsync=*/!ack_);
  ++txns_;
  ++since_snapshot_;
}

void DurableJournal::OnCommitted(const TxnDescriptor& desc) {
  (void)desc;
  PIVOT_FAULT_POINT("persist.commit.ack.pre");
  if (broken() || options_.snapshot_interval <= 0) return;
  if (since_snapshot_ <
      static_cast<std::uint64_t>(options_.snapshot_interval)) {
    return;
  }
  try {
    if (options_.compact) {
      Checkpoint();
    } else {
      PIVOT_FAULT_POINT("persist.snapshot.pre");
      Append(FrameType::kSnapshot,
             EncodeSnapshotBody(txns_, EncodeSessionImage(session_)),
             /*fsync=*/!ack_);
      since_snapshot_ = 0;
      ++snapshots_;
    }
  } catch (const JournalWriteError&) {
    // The commit stands; the poisoned journal refuses the next.
  }
}

void DurableJournal::Checkpoint() {
  ThrowIfBroken();
  if (checkpointed_) return;
  // The rewrite goes to <path>.compact, is synced, and is renamed over the
  // journal; the rename is the commit point, so a crash at any byte leaves
  // either the complete old journal or the complete new one.
  const std::string tmp = path_ + ".compact";
  try {
    PIVOT_FAULT_POINT("persist.compact.pre");
    WalWriter out = WalWriter::Create(tmp, /*sync_dir=*/false);
    out.AppendFrame(FrameType::kGenesis, genesis_, false,
                    "persist.compact.genesis");
    out.AppendFrame(FrameType::kSnapshot,
                    EncodeSnapshotBody(0, EncodeSessionImage(session_)), false,
                    "persist.compact.snapshot");
    out.Sync("persist.compact.tmp.synced");
    PIVOT_FAULT_POINT("persist.compact.rename.pre");
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
      throw ProgramError("journal checkpoint: rename failed: " +
                         std::string(std::strerror(errno)));
    }
    // Appends after this land in the new file only: its name must be as
    // durable as they are.
    SyncParentDir(path_);
    PIVOT_FAULT_POINT("persist.compact.rename.post");
    // The old fd references the replaced (unlinked) inode.
    writer_ = WalWriter::Append(path_);
  } catch (const FaultInjectedError&) {
    // The crash harness: the "process" is dead. Leave the tmp file behind
    // exactly like a real crash would — recovery deletes it.
    broken_ = true;
    throw;
  } catch (const ProgramError& e) {
    std::remove(tmp.c_str());  // no-op once renamed
    broken_ = true;
    throw JournalWriteError(e.what());
  }
  txns_ = 0;
  since_snapshot_ = 0;
  ++snapshots_;
  ++compactions_;
  checkpointed_ = true;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

std::string JournalRecoveryReport::ToString() const {
  std::ostringstream os;
  os << "journal: " << frames_scanned << " frames, " << txns_in_journal
     << " transactions\n";
  os << "replayed: " << txns_replayed << " onto ";
  if (used_snapshot) {
    os << "snapshot (covering " << snapshot_txns << ")";
  } else {
    os << "genesis";
  }
  os << "\n";
  if (truncated) {
    os << "truncated: " << truncation_reason << " at byte " << truncated_at
       << "\n";
  }
  os << "validator: " << (validator_ok ? "ok" : "FAILED") << "\n";
  for (const std::string& e : errors) {
    os << "error: " << e << "\n";
  }
  return os.str();
}

namespace {

// One recovery pass over the file as it currently is. Returns nullopt when
// the pass had to truncate mid-replay (divergence) — the caller re-runs on
// the now-shorter file so the returned session always matches the file
// exactly.
std::optional<RecoverResult> RecoverOnce(const std::string& path,
                                         std::vector<std::string>& errors,
                                         std::uint64_t& diverged_cut) {
  WalScanResult scan = ScanWal(path);
  if (!scan.header_ok) {
    throw ProgramError("recover: " + path + " is not a pivot journal (" +
                       scan.truncation_reason + ")");
  }
  if (scan.version > kJournalFormatVersion) {
    throw ProgramError(
        "recover: journal format version " + std::to_string(scan.version) +
        " is newer than this build supports (" +
        std::to_string(kJournalFormatVersion) + "); refusing to guess");
  }
  if (scan.frames.empty() || scan.frames[0].type != FrameType::kGenesis) {
    throw ProgramError("recover: journal has no genesis frame");
  }

  RecoverResult out;
  JournalRecoveryReport& rep = out.report;
  rep.frames_scanned = scan.frames.size();
  for (const WalFrame& frame : scan.frames) {
    if (frame.type == FrameType::kTxn) ++rep.txns_in_journal;
  }

  // A tail the scanner rejected (torn write, bit flip) is truncated before
  // anything is replayed — never silently replayed, never guessed at.
  if (scan.valid_bytes < scan.file_bytes) {
    rep.truncated = true;
    rep.truncated_at = scan.valid_bytes;
    rep.truncation_reason = scan.truncation_reason;
    PIVOT_FAULT_POINT("persist.recover.truncate.pre");
    TruncateWal(path, scan.valid_bytes);
  }

  const GenesisInfo genesis = DecodeGenesis(scan.frames[0].body);

  // Base state: the latest snapshot that decodes with a consistent
  // covered count, else the genesis source.
  std::unique_ptr<Session> session;
  std::uint64_t skip_txns = 0;
  if (std::optional<SnapshotChoice> choice = FindLatestUsableSnapshot(
          scan.frames, rep.txns_in_journal, errors)) {
    session = std::make_unique<Session>(std::move(choice->decoded.program),
                                        genesis.options);
    session->RestorePersistedState(std::move(choice->decoded.state));
    skip_txns = choice->covered;
    rep.used_snapshot = true;
    rep.snapshot_txns = choice->covered;
  }
  if (session == nullptr) {
    session = std::make_unique<Session>(Parse(genesis.source),
                                        genesis.options);
  }

  // Tail replay: re-execute every txn frame the base does not cover, in
  // file order, verifying the state digest after each.
  std::uint64_t txn_ordinal = 0;
  for (std::size_t i = 1; i < scan.frames.size(); ++i) {
    const WalFrame& frame = scan.frames[i];
    if (frame.type != FrameType::kTxn) continue;
    ++txn_ordinal;
    if (txn_ordinal <= skip_txns) continue;
    try {
      const TxnInfo info = DecodeTxn(frame.body);
      ReplayTxn(*session, info.desc);
      const SessionDigest actual = ComputeDigest(*session);
      if (!(actual == info.digest)) {
        throw ProgramError("state digest diverged (journal: " +
                           info.digest.ToString() + "; session: " +
                           actual.ToString() + ")");
      }
      ++rep.txns_replayed;
    } catch (const FaultInjectedError&) {
      throw;  // an armed injector is the harness talking, not corruption
    } catch (const ProgramError& e) {
      // The frame is valid bytes but does not replay — state divergence.
      // Cut the file at its start and re-run so session and file agree.
      errors.push_back("replay stopped at transaction " +
                       std::to_string(txn_ordinal) + ": " + e.what());
      diverged_cut = scan.frames[i - 1].end_offset;
      PIVOT_FAULT_POINT("persist.recover.truncate.pre");
      TruncateWal(path, diverged_cut);
      return std::nullopt;
    }
  }

  const ValidationReport validation = session->Validate();
  rep.validator_ok = validation.ok();
  if (!validation.ok()) {
    errors.push_back("validator: " + validation.violations.front());
  }
  out.session = std::move(session);
  return out;
}

}  // namespace

RecoverResult RecoverSession(const std::string& path) {
  // Recovery truncates and rewrites the file: refuse when a live journal
  // (this process or another) still owns it. The lock is released when
  // recovery returns — reattaching a journal re-acquires it.
  const FileLock lock = FileLock::Acquire(path);
  RemoveStaleCompactTmp(path);
  std::vector<std::string> errors;
  bool diverged = false;
  std::uint64_t diverged_cut = 0;
  for (;;) {
    std::optional<RecoverResult> result =
        RecoverOnce(path, errors, diverged_cut);
    if (!result.has_value()) {
      // Each divergence truncates at least one frame, so this terminates.
      diverged = true;
      continue;
    }
    if (diverged && !result->report.truncated) {
      result->report.truncated = true;
      result->report.truncation_reason = "replay divergence";
      result->report.truncated_at = diverged_cut;
    }
    result->report.errors = std::move(errors);
    return *std::move(result);
  }
}

RecoverResult Session::Recover(const std::string& path) {
  return RecoverSession(path);
}

}  // namespace pivot
