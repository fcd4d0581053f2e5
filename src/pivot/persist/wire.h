// Frame-body codecs for the durable journal: genesis (session options +
// initial source), committed transactions (operation descriptors + a state
// digest), and the deterministic replay of a descriptor through a live
// session.
//
// Transactions persist as *operations*, not state deltas: session state is
// a deterministic function of the initial source and the committed
// operation sequence (ids assigned in registration order, Find orders
// deterministic), so re-executing the descriptor stream through a fresh
// Session reproduces the pre-crash state exactly — ids included. The
// digest stored with each frame pins that claim: recovery verifies it
// after every replayed transaction and refuses to continue past a
// divergence.
#ifndef PIVOT_PERSIST_WIRE_H_
#define PIVOT_PERSIST_WIRE_H_

#include <cstdint>
#include <string>

#include "pivot/core/session.h"

namespace pivot {

// A cheap fingerprint of a session's committed state. Deliberately
// excludes the RecoveryReport counters (per-process statistics, not
// program state) and anything derived (analyses).
struct SessionDigest {
  std::uint32_t source_crc = 0;  // CRC32C of the printed program
  std::uint64_t history_size = 0;
  OrderStamp next_stamp = 1;
  std::uint64_t journal_records = 0;
  std::uint64_t annotations = 0;

  friend bool operator==(const SessionDigest& a,
                         const SessionDigest& b) = default;
  std::string ToString() const;
};

SessionDigest ComputeDigest(Session& session);

// --- genesis frame body ---
// Everything needed to reconstruct the session "as first opened": options
// and initial source. Custom interaction tables (UndoOptions::kCustom) are
// not persistable and are rejected at journal creation.
std::string EncodeGenesis(const SessionOptions& options,
                          const std::string& source);
struct GenesisInfo {
  SessionOptions options;
  std::string source;
};
GenesisInfo DecodeGenesis(const std::string& body);  // throws ProgramError

// --- snapshot frame body ---
// "txns <count>\n<payload>": the count of txn frames preceding the
// snapshot IN THIS FILE (so recovery knows how much of the tail the image
// covers), then the payload: a full session image. Version-3 files written
// by older builds may carry a " base <n>" clause after the count (the txn
// frames compaction had dropped from beneath the file, which their server
// needed to align its group log); the decoder accepts and ignores it.
std::string EncodeSnapshotBody(std::uint64_t txns, const std::string& payload);
struct SnapshotBody {
  std::uint64_t txns = 0;
  std::string payload;
};
SnapshotBody DecodeSnapshotBody(const std::string& body);  // throws

// --- txn frame body ---
std::string EncodeTxn(const TxnDescriptor& desc, const SessionDigest& digest);
struct TxnInfo {
  TxnDescriptor desc;
  SessionDigest digest;  // state after this commit
};
TxnInfo DecodeTxn(const std::string& body);  // throws ProgramError

// Re-executes one committed operation through the session's public API.
// Throws (ProgramError and friends) when the operation no longer applies —
// recovery treats that as journal/state divergence.
void ReplayTxn(Session& session, const TxnDescriptor& desc);

}  // namespace pivot

#endif  // PIVOT_PERSIST_WIRE_H_
