// Unit tests for the durable-journal subsystem: the CRC32C checksum, the
// WAL frame scanner's torn/corrupt-tail detection, the genesis / txn /
// snapshot-image codecs, the end-to-end Create → commit → Recover cycle,
// and the golden-tested recovery report rendering. The exhaustive
// crash-point sweep lives in journal_crash_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "pivot/core/session.h"
#include "pivot/ir/parser.h"
#include "pivot/persist/durable.h"
#include "pivot/persist/snapshot.h"
#include "pivot/persist/wal.h"
#include "pivot/persist/wire.h"
#include "pivot/support/crc32c.h"
#include "pivot/support/fault_injector.h"

namespace pivot {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "pivot_persist_" + name + ".wal";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PutU32LE(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

// Replaces frame `index` of the journal with (type, body), recomputing the
// length and CRC so the scanner still accepts it — a well-formed frame
// that lies about its content.
void RewriteFrame(const std::string& path, std::size_t index, FrameType type,
                  const std::string& body) {
  const WalScanResult scan = ScanWal(path);
  ASSERT_LT(index, scan.frames.size());
  std::string out = ReadFileBytes(path).substr(0, 12);  // header stays
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    std::string payload(
        1, static_cast<char>(i == index ? type : scan.frames[i].type));
    payload += i == index ? body : scan.frames[i].body;
    PutU32LE(out, static_cast<std::uint32_t>(payload.size()));
    PutU32LE(out, Crc32c(payload));
    out += payload;
  }
  WriteFileBytes(path, out);
}

// The session workload the end-to-end tests commit and recover.
const char kSource[] =
    "c = 1\n"
    "x = c\n"
    "x = 2\n"
    "y = 3 * 4\n"
    "write x\n"
    "write y\n"
    "write c\n";

void ExpectEquivalent(Session& a, Session& b, const char* label) {
  EXPECT_EQ(a.Source(), b.Source()) << label;
  EXPECT_EQ(a.HistoryToString(), b.HistoryToString()) << label;
  EXPECT_EQ(a.AnnotationsToString(), b.AnnotationsToString()) << label;
  EXPECT_EQ(a.journal().records().size(), b.journal().records().size())
      << label;
  EXPECT_EQ(a.history().next_stamp(), b.history().next_stamp()) << label;
}

// --- CRC32C ---

TEST(Crc32c, MatchesTheStandardTestVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B / every
  // hardware implementation): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
}

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string whole = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    const std::uint32_t head = Crc32c(whole.substr(0, split));
    EXPECT_EQ(Crc32c(whole.substr(split), head), Crc32c(whole));
  }
}

// --- WAL framing ---

class Wal : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(Wal, RoundTripsFrames) {
  const std::string path = TmpPath("roundtrip");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kGenesis, "g-body", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "t1", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, std::string("big\0body", 8), false,
                  "persist.txn");
    w.AppendFrame(FrameType::kSnapshot, "snap", true, "persist.snapshot");
  }
  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.version, kJournalFormatVersion);
  ASSERT_EQ(scan.frames.size(), 4u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[0].body, "g-body");
  EXPECT_EQ(scan.frames[2].body, std::string("big\0body", 8));
  EXPECT_EQ(scan.frames[3].type, FrameType::kSnapshot);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_TRUE(scan.truncation_reason.empty());
}

TEST_F(Wal, DetectsABitFlipViaChecksum) {
  const std::string path = TmpPath("bitflip");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "first", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "second", true, "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 2] ^= 0x40;  // inside the last frame's payload
  WriteFileBytes(path, bytes);

  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].body, "first");
  EXPECT_EQ(scan.truncation_reason, "checksum mismatch");
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);
}

TEST_F(Wal, DetectsATornTail) {
  const std::string path = TmpPath("torn");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "first", true, "persist.txn");
    w.AppendFrame(FrameType::kTxn, "a-much-longer-second-frame", true,
                  "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 5));

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.frames[0].body, "first");
  EXPECT_EQ(scan.truncation_reason, "frame exceeds file");
  EXPECT_LT(scan.valid_bytes, scan.file_bytes);
}

TEST_F(Wal, StopsAtTrailingGarbage) {
  const std::string path = TmpPath("garbage");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "only", true, "persist.txn");
  }
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes + "xy");  // shorter than a frame header

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 1u);
  EXPECT_EQ(scan.truncation_reason, "torn frame header");
  EXPECT_EQ(scan.valid_bytes + 2, scan.file_bytes);
}

TEST_F(Wal, TruncateRestoresTheValidPrefix) {
  const std::string path = TmpPath("truncate");
  {
    WalWriter w = WalWriter::Create(path);
    w.AppendFrame(FrameType::kTxn, "keep", true, "persist.txn");
  }
  const std::string good = ReadFileBytes(path);
  WriteFileBytes(path, good + "torn tail bytes");
  TruncateWal(path, good.size());
  EXPECT_EQ(ReadFileBytes(path), good);
  const WalScanResult scan = ScanWal(path);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_EQ(scan.frames.size(), 1u);
}

// Regression: a Create-derived writer that rolls an unacknowledged frame
// off with TruncateTo must append the NEXT frame at the new physical end.
// Without O_APPEND (and a position reset after ftruncate) the fd kept its
// pre-truncate position, so the next write left a zero-filled hole that
// made every later frame unreadable at scan time.
TEST_F(Wal, AppendAfterTruncateToLeavesNoHole) {
  const std::string path = TmpPath("truncate_then_append");
  {
    WalWriter w = WalWriter::Create(path);
    const std::uint64_t pre = w.offset();
    w.AppendFrame(FrameType::kTxn, "rolled-back", false, "persist.txn");
    w.TruncateTo(pre);
    w.AppendFrame(FrameType::kTxn, "kept", true, "persist.txn");
    w.AppendFrame(FrameType::kSnapshot, "snap", true, "persist.snapshot");
  }
  const WalScanResult scan = ScanWal(path);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].body, "kept");
  EXPECT_EQ(scan.frames[1].body, "snap");
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_TRUE(scan.truncation_reason.empty());
}

TEST_F(Wal, RejectsAForeignFile) {
  const std::string path = TmpPath("foreign");
  WriteFileBytes(path, "this is not a journal at all");
  const WalScanResult scan = ScanWal(path);
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.truncation_reason, "missing or corrupt file header");
}

// --- frame-body codecs ---

TEST(WireCodec, GenesisRoundTrips) {
  SessionOptions options;
  options.undo.heuristic = UndoOptions::Heuristic::kConservative;
  options.undo.regional = false;
  options.undo.indexed = false;
  options.undo.max_depth = 77;
  options.strict = true;
  const std::string source = "x = 1\nwrite \"odd\\chars\"\nwrite x\n";

  const GenesisInfo info = DecodeGenesis(EncodeGenesis(options, source));
  EXPECT_EQ(info.options.undo.heuristic, options.undo.heuristic);
  EXPECT_EQ(info.options.undo.regional, options.undo.regional);
  EXPECT_EQ(info.options.undo.indexed, options.undo.indexed);
  EXPECT_EQ(info.options.undo.max_depth, options.undo.max_depth);
  EXPECT_EQ(info.options.strict, options.strict);
  EXPECT_EQ(info.source, source);
}

// The genesis layout predates the removal of four options; their slots
// stay in the frame. A default genesis is byte-for-byte what older builds
// wrote, and a genesis an older build wrote with those options set still
// decodes (the retired values are read and dropped).
TEST(WireCodec, GenesisKeepsTheRetiredSlots) {
  const std::string source = "x = 1\nwrite x\n";
  EXPECT_EQ(EncodeGenesis(SessionOptions{}, source),
            "genesis 1 1 1 1 10000 0 0 4 0 \"x = 1\\nwrite x\\n\" ");

  // heuristic=conservative regional indexed safety_threads=3 max_depth=77
  // incremental=1 parallel_rebuild=0 threads=2 strict.
  const GenesisInfo info =
      DecodeGenesis("genesis 0 1 1 3 77 1 0 2 1 \"x = 1\\nwrite x\\n\" ");
  EXPECT_EQ(info.options.undo.heuristic,
            UndoOptions::Heuristic::kConservative);
  EXPECT_TRUE(info.options.undo.regional);
  EXPECT_TRUE(info.options.undo.indexed);
  EXPECT_EQ(info.options.undo.max_depth, 77);
  EXPECT_TRUE(info.options.strict);
  EXPECT_EQ(info.source, source);
}

TEST(WireCodec, TxnRoundTrips) {
  TxnDescriptor desc;
  desc.op = TxnOp::kEditAdd;
  desc.apply_site.kind = TransformKind::kIcm;
  desc.apply_site.s1 = StmtId(4);
  desc.apply_site.s2 = StmtId(9);
  desc.apply_site.expr = ExprId(17);
  desc.apply_site.var = "tmp \"quoted\"";
  desc.apply_site.value = -3;
  desc.result_stamp = 12;
  desc.undo_stamps = {3, 5, 8};
  desc.target = StmtId(2);
  desc.parent = StmtId(6);
  desc.body = BodyKind::kElse;
  desc.index = 4;
  desc.site = ExprId(11);
  desc.stmt_text = "write x\n";
  desc.expr_text = "1 + 2";
  SessionDigest digest;
  digest.source_crc = 0xDEADBEEFu;
  digest.history_size = 42;
  digest.next_stamp = 13;
  digest.journal_records = 41;
  digest.annotations = 7;

  const TxnInfo info = DecodeTxn(EncodeTxn(desc, digest));
  EXPECT_EQ(info.desc.op, desc.op);
  EXPECT_EQ(info.desc.apply_site.kind, desc.apply_site.kind);
  EXPECT_EQ(info.desc.apply_site.s1, desc.apply_site.s1);
  EXPECT_EQ(info.desc.apply_site.s2, desc.apply_site.s2);
  EXPECT_EQ(info.desc.apply_site.expr, desc.apply_site.expr);
  EXPECT_EQ(info.desc.apply_site.var, desc.apply_site.var);
  EXPECT_EQ(info.desc.apply_site.value, desc.apply_site.value);
  EXPECT_EQ(info.desc.result_stamp, desc.result_stamp);
  EXPECT_EQ(info.desc.undo_stamps, desc.undo_stamps);
  EXPECT_EQ(info.desc.target, desc.target);
  EXPECT_EQ(info.desc.parent, desc.parent);
  EXPECT_EQ(info.desc.body, desc.body);
  EXPECT_EQ(info.desc.index, desc.index);
  EXPECT_EQ(info.desc.site, desc.site);
  EXPECT_EQ(info.desc.stmt_text, desc.stmt_text);
  EXPECT_EQ(info.desc.expr_text, desc.expr_text);
  EXPECT_EQ(info.digest, digest);
}

TEST(WireCodec, RejectsTrailingData) {
  SessionOptions options;
  EXPECT_THROW(DecodeGenesis(EncodeGenesis(options, "write 1\n") + " 9"),
               ProgramError);
  EXPECT_THROW(DecodeTxn("txn apply"), ProgramError);
}

// --- snapshot image ---

TEST(SnapshotImage, RoundTripsALiveSession) {
  Session a(Parse(kSource));
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kCfo).has_value());
  const OrderStamp ctp = *a.ApplyFirst(TransformKind::kCtp);
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kDce).has_value());
  a.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
  a.Undo(ctp);

  DecodedImage img = DecodeSessionImage(EncodeSessionImage(a));
  Session b(std::move(img.program), a.options());
  b.RestorePersistedState(std::move(img.state));

  ExpectEquivalent(a, b, "restored image");
  EXPECT_TRUE(b.Validate().ok());

  // The image preserved id counters and payload trees: both sessions must
  // keep evolving identically, including re-applying what was undone and
  // undoing a pre-snapshot transformation (payload swap-back).
  ASSERT_TRUE(a.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(b.ApplyFirst(TransformKind::kCtp).has_value());
  ExpectEquivalent(a, b, "after continued apply");
  a.UndoLast();
  b.UndoLast();
  ExpectEquivalent(a, b, "after continued undo");
}

TEST(SnapshotImage, RejectsCorruptImages) {
  EXPECT_THROW(DecodeSessionImage("pivot-image 999"), ProgramError);
  EXPECT_THROW(DecodeSessionImage("nonsense"), ProgramError);
}

// --- end-to-end: create, commit, recover ---

class Durable : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Commits three transformations and one edit through a fresh journal.
void RunWorkload(Session& s) {
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
  s.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
}

TEST_F(Durable, RecoversByFullReplay) {
  const std::string path = TmpPath("replay");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  EXPECT_EQ(wal->txns_written(), 4u);
  EXPECT_EQ(wal->snapshots_written(), 0u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_in_journal, 4u);
  EXPECT_EQ(r.report.txns_replayed, 4u);
  EXPECT_FALSE(r.report.used_snapshot);
  EXPECT_FALSE(r.report.truncated);
  EXPECT_TRUE(r.report.validator_ok);
  EXPECT_TRUE(r.report.errors.empty());
  ExpectEquivalent(s, *r.session, "full replay");
}

TEST_F(Durable, RecoversFromSnapshotPlusTail) {
  const std::string path = TmpPath("snapshot");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);                // 4 txns => snapshot after the 3rd
  EXPECT_EQ(wal->snapshots_written(), 1u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "snapshot + tail");

  // Recovery is a full citizen: the recovered session keeps working.
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(r.session->ApplyFirst(TransformKind::kCtp).has_value());
  ExpectEquivalent(s, *r.session, "continued after recovery");
}

TEST_F(Durable, TruncatesACorruptTailInsteadOfReplayingIt) {
  const std::string path = TmpPath("corrupt_tail");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  wal.reset();

  // Reference: the same workload stopped before its last operation.
  Session prefix(Parse(kSource));
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCfo).has_value());
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCtp).has_value());
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kDce).has_value());

  std::string bytes = ReadFileBytes(path);
  bytes[bytes.size() - 3] ^= 0x01;  // flip one bit in the last frame
  WriteFileBytes(path, bytes);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.truncation_reason, "checksum mismatch");
  EXPECT_EQ(r.report.txns_replayed, 3u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(prefix, *r.session, "after corrupt-tail truncation");

  // Idempotent: a second recovery of the truncated file is clean.
  RecoverResult again = Session::Recover(path);
  EXPECT_FALSE(again.report.truncated);
  ExpectEquivalent(prefix, *again.session, "second recovery");
}

TEST_F(Durable, ACorruptMiddleFrameCutsEverythingBehindIt) {
  const std::string path = TmpPath("corrupt_middle");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  RunWorkload(s);
  wal.reset();

  // Flip a byte inside the second txn frame: the valid prefix is genesis +
  // one transaction, and the two later (individually intact) frames behind
  // the damage must not be replayed.
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 5u);
  std::string bytes = ReadFileBytes(path);
  bytes[scan.frames[2].end_offset - 2] ^= 0x10;
  WriteFileBytes(path, bytes);

  Session prefix(Parse(kSource));
  ASSERT_TRUE(prefix.ApplyFirst(TransformKind::kCfo).has_value());

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.truncated_at, scan.frames[1].end_offset);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  ExpectEquivalent(prefix, *r.session, "middle-frame corruption");
}

TEST_F(Durable, RefusesANewerFormatVersion) {
  const std::string path = TmpPath("newer_version");
  Session s(Parse(kSource));
  DurableJournal::Create(s, path).reset();
  std::string bytes = ReadFileBytes(path);
  bytes[8] = static_cast<char>(kJournalFormatVersion + 1);  // version u32 LE
  WriteFileBytes(path, bytes);
  EXPECT_THROW(Session::Recover(path), ProgramError);
}

TEST_F(Durable, RefusesFilesWithoutAGenesis) {
  const std::string garbage = TmpPath("not_a_journal");
  WriteFileBytes(garbage, "hello");
  EXPECT_THROW(Session::Recover(garbage), ProgramError);

  const std::string empty = TmpPath("empty_journal");
  WriteFileBytes(empty, "");
  EXPECT_THROW(Session::Recover(empty), ProgramError);

  // A valid header with no frames behind it: nothing to recover from.
  const std::string headless = TmpPath("headless");
  { WalWriter w = WalWriter::Create(headless); }
  EXPECT_THROW(Session::Recover(headless), ProgramError);
}

TEST_F(Durable, CreateRejectsNonPristineAndNonPersistableSessions) {
  Session used(Parse(kSource));
  ASSERT_TRUE(used.ApplyFirst(TransformKind::kCfo).has_value());
  EXPECT_THROW(DurableJournal::Create(used, TmpPath("used")), ProgramError);

  SessionOptions custom;
  custom.undo.heuristic = UndoOptions::Heuristic::kCustom;
  Session c(Parse(kSource), custom);
  EXPECT_THROW(DurableJournal::Create(c, TmpPath("custom")), ProgramError);
}

TEST_F(Durable, ReattachContinuesAnExistingJournal) {
  const std::string path = TmpPath("reattach");
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  }
  {
    auto wal = DurableJournal::Reattach(s, path);
    EXPECT_EQ(wal->txns_written(), 2u);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
    EXPECT_EQ(wal->txns_written(), 3u);
  }
  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_replayed, 3u);
  ExpectEquivalent(s, *r.session, "after reattach");
}

TEST_F(Durable, ReattachRefusesATornFile) {
  const std::string path = TmpPath("reattach_torn");
  Session s(Parse(kSource));
  {
    auto wal = DurableJournal::Create(s, path);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  }
  WriteFileBytes(path, ReadFileBytes(path) + "torn");
  Session fresh(Parse(kSource));
  EXPECT_THROW(DurableJournal::Reattach(fresh, path), ProgramError);
}

TEST_F(Durable, AWriteFaultRollsBackAndPoisonsTheJournal) {
  const std::string path = TmpPath("poisoned");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  const std::string committed_source = s.Source();
  const std::string committed_history = s.HistoryToString();

  // Crash mid-frame on the next commit: the operation must roll back (the
  // write-ahead frame was never acknowledged) and the journal must refuse
  // further appends, because the file now ends in a torn frame.
  FaultInjector::Instance().Arm("persist.txn.mid", 1);
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), FaultInjectedError);
  FaultInjector::Instance().Reset();
  EXPECT_EQ(s.Source(), committed_source);
  EXPECT_EQ(s.HistoryToString(), committed_history);
  EXPECT_TRUE(wal->broken());
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), ProgramError);
  wal.reset();

  // Recovery truncates the torn frame and lands on the committed prefix.
  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.truncated);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_EQ(r.session->Source(), committed_source);
  EXPECT_EQ(r.session->HistoryToString(), committed_history);
}

// A permanent (non-injected) write fault: the retry budget is exhausted on
// the txn frame's first write(2). Per the failure policy the operation
// fails with JournalWriteError and rolls back, and the journal is poisoned
// — every later commit is refused until the file is recovered, which
// yields the acknowledged prefix.
TEST_F(Durable, APermanentWriteFaultPoisonsTheJournal) {
  const std::string path = TmpPath("permanent_fault");
  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path);
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
  const std::string committed_source = s.Source();
  const std::string committed_history = s.HistoryToString();

  FaultInjector::Instance().ArmTransient("wal.write.transient",
                                         kMaxIoAttempts + 1);
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), JournalWriteError);
  FaultInjector::Instance().Reset();
  EXPECT_EQ(s.Source(), committed_source);
  EXPECT_EQ(s.HistoryToString(), committed_history);
  EXPECT_TRUE(wal->broken());
  EXPECT_THROW(s.ApplyFirst(TransformKind::kCtp), JournalWriteError);
  EXPECT_EQ(s.Source(), committed_source);
  EXPECT_EQ(wal->txns_written(), 1u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  EXPECT_EQ(r.session->Source(), committed_source);
  EXPECT_EQ(r.session->HistoryToString(), committed_history);
}

// An ack that refuses a written txn frame rolls the operation back. The
// rollback must rewind the program's id counters too: replay never sees
// the refused attempt, so a live session that kept the ids it burned would
// name its nodes differently from the session recovery rebuilds.
TEST_F(Durable, RefusedCommitsLeaveTheIdCountersWhereReplayHasThem) {
  const std::string path = TmpPath("refused_ids");
  Session s(Parse(kSource));
  bool refuse = false;
  auto wal = DurableJournal::Create(
      s, path, {}, [&refuse](FrameType type, WalWriter&) {
        if (type == FrameType::kTxn && refuse) {
          refuse = false;
          throw ProgramError("commit refused");
        }
      });
  for (const TransformKind kind :
       {TransformKind::kCtp, TransformKind::kCfo, TransformKind::kDce}) {
    refuse = true;
    EXPECT_THROW(s.ApplyFirst(kind), ProgramError);
    EXPECT_FALSE(refuse) << "the ack never saw the first attempt";
    ASSERT_TRUE(s.ApplyFirst(kind).has_value());
  }
  wal.reset();

  RecoverResult r = RecoverSession(path);
  EXPECT_EQ(r.report.txns_replayed, 3u);
  EXPECT_EQ(EncodeSessionImage(*r.session), EncodeSessionImage(s));
}

// Older builds could write delta-encoded snapshots (frame type 5). A
// journal holding one still scans clean — its tail is not cut — while
// recovery rebuilds from the full snapshot before it and compaction
// drops it.
TEST_F(Durable, ARetiredDeltaFrameIsScannedButSkipped) {
  const std::string path = TmpPath("retired_delta");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  {
    auto wal = DurableJournal::Create(s, path, opts);
    RunWorkload(s);  // genesis, 3 txns, snapshot (covering 3), 1 txn
  }
  {
    WalWriter w = WalWriter::Append(path);
    w.AppendFrame(static_cast<FrameType>(5),
                  EncodeSnapshotBody(4, "delta 0 0 0"), true,
                  "persist.snapshot");
  }
  const WalScanResult scan = ScanWal(path);
  EXPECT_EQ(scan.version, 3u);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  ASSERT_EQ(scan.frames.size(), 7u);
  EXPECT_EQ(scan.frames.back().type, FrameType::kRetiredDelta);

  RecoverResult r = Session::Recover(path);
  EXPECT_FALSE(r.report.truncated);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.errors.empty());
  ExpectEquivalent(s, *r.session, "recovery past a retired delta frame");

  auto wal = DurableJournal::Reattach(*r.session, path, r.report, opts);
  wal->Compact();
  EXPECT_EQ(wal->compactions(), 1u);
  wal.reset();
  std::vector<FrameType> types;
  for (const WalFrame& f : ScanWal(path).frames) types.push_back(f.type);
  const std::vector<FrameType> expected = {
      FrameType::kGenesis, FrameType::kSnapshot, FrameType::kTxn};
  EXPECT_EQ(types, expected);
}

// Older version-3 builds wrote a " base <n>" clause into compacted
// snapshots (the txn frames compaction had dropped from beneath the file).
// Current builds no longer write it, but a file that carries one still
// recovers from that snapshot, and the journal appends and compacts on.
TEST_F(Durable, ASnapshotWithTheRetiredBaseClauseStillRecovers) {
  const std::string path = TmpPath("retired_base");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  {
    auto wal = DurableJournal::Create(s, path, opts);
    RunWorkload(s);  // genesis, 3 txns, snapshot (covering 3), 1 txn
  }
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 6u);
  ASSERT_EQ(scan.frames[4].type, FrameType::kSnapshot);
  EXPECT_EQ(scan.frames[4].body.rfind("txns 3\n", 0), 0u);  // no clause
  RewriteFrame(path, 4, FrameType::kSnapshot,
               "txns 3 base 7\n" +
                   DecodeSnapshotBody(scan.frames[4].body).payload);
  EXPECT_EQ(DecodeSnapshotBody(ScanWal(path).frames[4].body).txns, 3u);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.errors.empty());
  ExpectEquivalent(s, *r.session, "recovery from a snapshot with a base");

  auto wal = DurableJournal::Reattach(*r.session, path, r.report, opts);
  wal->Compact();
  EXPECT_EQ(wal->txns_written(), 1u);
  wal.reset();
  const WalScanResult compacted = ScanWal(path);
  ASSERT_EQ(compacted.frames.size(), 3u);
  EXPECT_EQ(compacted.frames[1].body.rfind("txns 0\n", 0), 0u);
  ExpectEquivalent(s, *Session::Recover(path).session,
                   "recovery after compacting it");
}

// A snapshot frame that scans (valid CRC) but does not decode is ignored:
// recovery falls back to the next older snapshot and replays from there.
TEST_F(Durable, ACorruptSnapshotFallsBackToAnOlderSnapshot) {
  const std::string path = TmpPath("snapshot_corrupt");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 1;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);  // 4 txns, each followed by a snapshot
  EXPECT_EQ(wal->snapshots_written(), 4u);
  wal.reset();

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.back().type, FrameType::kSnapshot);
  RewriteFrame(path, scan.frames.size() - 1, FrameType::kSnapshot,
               EncodeSnapshotBody(4, "garbage, not an image"));

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 3u);  // the snapshot before the bad one
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ASSERT_FALSE(r.report.errors.empty());
  EXPECT_NE(r.report.errors[0].find("snapshot frame ignored"),
            std::string::npos);
  ExpectEquivalent(s, *r.session, "fallback past a corrupt snapshot");
}

// Regression: a snapshot frame whose `txns <count>` prefix claims to cover
// more transactions than the journal holds used to make recovery skip ALL
// replay (skip_txns > txns_in_journal) with the digest never re-verified.
// Such a frame is corrupt evidence and must be ignored.
TEST_F(Durable, ASnapshotClaimingMoreTxnsThanTheJournalIsIgnored) {
  const std::string path = TmpPath("inflated_count");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);  // genesis, 3 txns, snapshot (covering 3), 1 txn
  wal.reset();

  const WalScanResult scan = ScanWal(path);
  std::size_t snap = 0;
  for (std::size_t i = 0; i < scan.frames.size(); ++i) {
    if (scan.frames[i].type == FrameType::kSnapshot) snap = i;
  }
  ASSERT_GT(snap, 0u);
  const SnapshotBody body = DecodeSnapshotBody(scan.frames[snap].body);
  ASSERT_EQ(body.txns, 3u);
  RewriteFrame(path, snap, FrameType::kSnapshot,
               EncodeSnapshotBody(99, body.payload));

  RecoverResult r = Session::Recover(path);
  EXPECT_FALSE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 4u);  // full replay from genesis
  EXPECT_TRUE(r.report.validator_ok);
  ASSERT_FALSE(r.report.errors.empty());
  EXPECT_NE(r.report.errors[0].find("claims"), std::string::npos);
  ExpectEquivalent(s, *r.session, "inflated snapshot count");
}

// Reattach computes its snapshot cadence from the last USABLE snapshot: a
// corrupt trailing snapshot frame must not defer the next snapshot a full
// interval beyond what recovery would actually use.
TEST_F(Durable, ReattachIgnoresACorruptTrailingSnapshot) {
  const std::string path = TmpPath("reattach_corrupt_snap");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;
  {
    auto wal = DurableJournal::Create(s, path, opts);
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCfo).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
    ASSERT_TRUE(s.ApplyFirst(TransformKind::kDce).has_value());
    EXPECT_EQ(wal->snapshots_written(), 1u);
  }
  // Corrupt the trailing snapshot's image (the frame still scans).
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.back().type, FrameType::kSnapshot);
  RewriteFrame(path, scan.frames.size() - 1, FrameType::kSnapshot,
               EncodeSnapshotBody(3, "garbage, not an image"));

  auto wal = DurableJournal::Reattach(s, path, opts);
  // snapshots_written() counts snapshot-typed frames, corrupt or not.
  EXPECT_EQ(wal->snapshots_written(), 1u);
  // All 3 txns are uncovered by any usable snapshot, so the very next
  // commit re-snapshots instead of waiting out a fresh interval.
  s.editor().AddStmt(MakeWrite(MakeIntConst(7)), nullptr, BodyKind::kMain, 0);
  EXPECT_EQ(wal->snapshots_written(), 2u);
  wal.reset();

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.snapshot_txns, 4u);  // the fresh snapshot, not the bad one
  ExpectEquivalent(s, *r.session, "after reattach over a corrupt snapshot");
}

// --- compaction ---

TEST_F(Durable, CompactionShrinksTheJournalAndStaysRecoverable) {
  const std::string path = TmpPath("compact");
  const std::string full_path = TmpPath("compact_baseline");
  PersistOptions opts;
  opts.snapshot_interval = 2;
  opts.compact = true;  // after every snapshot

  Session s(Parse(kSource));
  auto wal = DurableJournal::Create(s, path, opts);
  // The baseline journal: same workload, no compaction.
  Session baseline(Parse(kSource));
  PersistOptions full_opts = opts;
  full_opts.compact = false;
  auto full_wal = DurableJournal::Create(baseline, full_path, full_opts);
  RunWorkload(s);
  RunWorkload(baseline);
  EXPECT_EQ(wal->compactions(), 2u);  // after the snapshots at txn 2 and 4
  EXPECT_LT(wal->journal_bytes(), full_wal->journal_bytes());
  wal.reset();
  full_wal.reset();

  // The compacted file is genesis + the rebased snapshot, nothing else.
  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 2u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[1].type, FrameType::kSnapshot);
  EXPECT_EQ(DecodeSnapshotBody(scan.frames[1].body).txns, 0u);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 0u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "recovery after compaction");

  // Reattach continues the compacted file and keeps compacting.
  auto again = DurableJournal::Reattach(s, path, opts);
  ASSERT_TRUE(s.ApplyFirst(TransformKind::kCtp).has_value());
  s.UndoLast();
  EXPECT_EQ(again->compactions(), 1u);
  again.reset();
  RecoverResult r2 = Session::Recover(path);
  EXPECT_TRUE(r2.report.validator_ok);
  ExpectEquivalent(s, *r2.session, "recovery after reattach + compaction");
}

TEST_F(Durable, ExplicitCompactKeepsTheUncoveredTail) {
  const std::string path = TmpPath("compact_tail");
  Session s(Parse(kSource));
  PersistOptions opts;
  opts.snapshot_interval = 3;  // snapshot after txn 3; txn 4 is the tail
  auto wal = DurableJournal::Create(s, path, opts);
  RunWorkload(s);
  EXPECT_EQ(wal->compactions(), 0u);
  wal->Compact();
  EXPECT_EQ(wal->compactions(), 1u);
  EXPECT_EQ(wal->txns_written(), 1u);  // rebased: only the tail txn remains
  wal.reset();

  const WalScanResult scan = ScanWal(path);
  ASSERT_EQ(scan.frames.size(), 3u);
  EXPECT_EQ(scan.frames[0].type, FrameType::kGenesis);
  EXPECT_EQ(scan.frames[1].type, FrameType::kSnapshot);
  EXPECT_EQ(scan.frames[2].type, FrameType::kTxn);
  EXPECT_EQ(DecodeSnapshotBody(scan.frames[1].body).txns, 0u);

  RecoverResult r = Session::Recover(path);
  EXPECT_TRUE(r.report.used_snapshot);
  EXPECT_EQ(r.report.txns_replayed, 1u);
  EXPECT_TRUE(r.report.validator_ok);
  ExpectEquivalent(s, *r.session, "compacted journal with a tail");
}

TEST_F(Durable, StaleCompactionTmpIsCleanedUp) {
  const std::string path = TmpPath("stale_tmp");
  const std::string tmp = path + ".compact";
  Session s(Parse(kSource));
  { auto wal = DurableJournal::Create(s, path); RunWorkload(s); }

  // A crash between writing <path>.compact and the rename leaves the tmp
  // behind; both recovery and reattach must discard it.
  WriteFileBytes(tmp, "leftover from a dead compaction");
  Session::Recover(path);
  EXPECT_FALSE(std::filesystem::exists(tmp));

  WriteFileBytes(tmp, "leftover from a dead compaction");
  DurableJournal::Reattach(s, path).reset();
  EXPECT_FALSE(std::filesystem::exists(tmp));
}

// --- recovery report goldens ---

TEST(JournalRecoveryReportGolden, CleanFullReplay) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 5;
  rep.txns_in_journal = 4;
  rep.txns_replayed = 4;
  rep.validator_ok = true;
  EXPECT_EQ(rep.ToString(),
            "journal: 5 frames, 4 transactions\n"
            "replayed: 4 onto genesis\n"
            "validator: ok\n");
}

TEST(JournalRecoveryReportGolden, SnapshotBase) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 9;
  rep.txns_in_journal = 7;
  rep.txns_replayed = 1;
  rep.used_snapshot = true;
  rep.snapshot_txns = 6;
  rep.validator_ok = true;
  EXPECT_EQ(rep.ToString(),
            "journal: 9 frames, 7 transactions\n"
            "replayed: 1 onto snapshot (covering 6)\n"
            "validator: ok\n");
}

TEST(JournalRecoveryReportGolden, TruncatedTailWithErrors) {
  JournalRecoveryReport rep;
  rep.frames_scanned = 3;
  rep.txns_in_journal = 2;
  rep.txns_replayed = 2;
  rep.truncated = true;
  rep.truncated_at = 181;
  rep.truncation_reason = "checksum mismatch";
  rep.validator_ok = false;
  rep.errors = {"snapshot frame ignored: persisted frame: bad snapshot prefix",
                "validator: stale annotation"};
  EXPECT_EQ(rep.ToString(),
            "journal: 3 frames, 2 transactions\n"
            "replayed: 2 onto genesis\n"
            "truncated: checksum mismatch at byte 181\n"
            "validator: FAILED\n"
            "error: snapshot frame ignored: persisted frame: bad snapshot "
            "prefix\n"
            "error: validator: stale annotation\n");
}

// --- fault-point registry ---

TEST(FaultPoints, PersistCrashPointsAreRegistered) {
  int persist_points = 0;
  for (const std::string& p : FaultInjector::KnownPoints()) {
    if (p.rfind("persist.", 0) == 0) ++persist_points;
  }
  // The acceptance bar for the crash sweep: at least ten instrumented
  // crash points in the durability path.
  EXPECT_GE(persist_points, 10);
}

}  // namespace
}  // namespace pivot
