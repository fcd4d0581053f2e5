// Full session-state images for the durable journal's snapshots.
//
// A snapshot is not a printed program: the journal's action records own
// payload trees (deleted subtrees awaiting resurrection, replaced
// expressions, saved loop headers) that no source text reproduces, and ids
// must survive exactly (annotations, locations and records all refer to
// nodes by id). The image therefore serializes the complete object graph —
// program trees with ids, id counters, every action record with its
// payloads, annotations, edit stamps and history — as a deterministic
// whitespace-separated token stream that decodes back into a bit-identical
// session.
//
// What the image deliberately omits: the RecoveryReport counters
// (per-process transactional statistics, not program state) and the
// analysis cache (derived data, rebuilt on demand).
#ifndef PIVOT_PERSIST_SNAPSHOT_H_
#define PIVOT_PERSIST_SNAPSHOT_H_

#include <deque>
#include <string>
#include <vector>

#include "pivot/actions/annotations.h"
#include "pivot/ir/program.h"
#include "pivot/transform/transform.h"

namespace pivot {

class Session;

// The non-Program half of a session's persistent state, in the shape
// Session::RestorePersistedState installs it.
struct SessionState {
  std::deque<ActionRecord> actions;  // ids == position + 1
  AnnotationMap annotations;
  std::vector<OrderStamp> edit_stamps;
  std::deque<TransformRecord> history;
  OrderStamp next_stamp = 1;
};

// Serializes the session's complete persistent state. Deterministic: equal
// sessions produce byte-identical images.
std::string EncodeSessionImage(Session& session);

struct DecodedImage {
  // Trees re-attached with their original ids; id counters restored.
  Program program;
  SessionState state;
};

// Parses an image; throws ProgramError on any malformation (recovery treats
// that the same as a CRC failure: the frame is not trusted).
DecodedImage DecodeSessionImage(const std::string& image);

}  // namespace pivot

#endif  // PIVOT_PERSIST_SNAPSHOT_H_
