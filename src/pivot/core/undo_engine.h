// The independent-order UNDO algorithm (paper Figure 4).
//
//   UNDO(t_i):
//     while post_pattern(t_i) is invalidated:            (lines 4-11)
//       find the disabling condition, the action causing it, and the
//       transformation t_j that issued the action; UNDO(t_j)
//     perform inverse actions of t_i                      (line 12)
//     update dependence and data-flow information         (line 13)
//     determine the affected region                       (line 15)
//     for every later transformation t_k in the region    (lines 16-29)
//       marked in the reverse-destroy table for t_i:
//         if !safety(t_k): UNDO(t_k)
//
// Options select the pruning machinery, which is exactly the ablation the
// benchmarks run: the reverse-destroy heuristic table (published /
// conservative / custom) and the event-driven regional analysis (on/off).
#ifndef PIVOT_CORE_UNDO_ENGINE_H_
#define PIVOT_CORE_UNDO_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "pivot/core/history.h"
#include "pivot/core/interactions.h"
#include "pivot/core/region.h"
#include "pivot/core/region_index.h"
#include "pivot/core/trace.h"
#include "pivot/core/transaction.h"

namespace pivot {

struct UndoOptions {
  enum class Heuristic {
    kConservative,  // all-'x' table: every later transformation is a
                    // candidate (no interaction pruning)
    kPublished,     // the paper's Table 4 (unpublished rows conservative)
    kCustom,        // caller-provided table
  };
  Heuristic heuristic = Heuristic::kPublished;
  InteractionTable custom;  // used when heuristic == kCustom
  bool regional = true;     // event-driven regional undo (§4.4) on/off

  // Candidate selection through the persistent RegionIndex instead of a
  // full history scan. Off = the seed's linear scans (the A/B baseline).
  // Scans fall back to the linear path while a trace is attached, so
  // decision traces stay event-for-event identical to the seed.
  bool indexed = true;

  // Bound on affecting-chain walks and cascade recursion. Exhaustion is a
  // reported error (ProgramError + RecoveryReport::undo_depth_exhausted),
  // never a silent truncation.
  int max_depth = 10000;
};

struct UndoStats {
  int transforms_undone = 0;
  int actions_inverted = 0;
  // Work metrics of the affected-transformation scan (lines 16-29).
  int candidates_total = 0;       // candidates examined: all later live
                                  // transformations on the linear path,
                                  // only index-selected ones when indexed
  int candidates_in_region = 0;   // survived the regional filter
  int candidates_marked = 0;      // survived the reverse-destroy filter
  int safety_checks = 0;          // full safety-condition evaluations
  int reversibility_checks = 0;   // post-pattern validations
  // Figure 4 line 13: how many from-scratch analysis re-derivations the
  // undo triggered (each inverse-action batch invalidates the caches).
  // Same width as AnalysisCache::rebuild_count() — the counters this is
  // differenced from are uint64_t, so an int here silently narrowed.
  std::uint64_t analysis_rebuilds = 0;
  // Fault points traversed while this undo ran — the operation's failure
  // surface, i.e. how many distinct places an injected fault could have
  // interrupted it. Counted only while the FaultInjector is active.
  std::uint64_t fault_crossings = 0;

  UndoStats& operator+=(const UndoStats& other);
};

class UndoEngine {
 public:
  UndoEngine(AnalysisCache& analyses, Journal& journal, History& history,
             UndoOptions options = {});

  // Figure 4: undo t_i (and whatever that forces) in independent order.
  // Throws ProgramError when the undo is blocked by a user edit or the
  // affecting transformation cannot be identified.
  UndoStats Undo(OrderStamp stamp);

  // The batch planner: undo a whole set in one plan instead of N separate
  // cascades. Two waves —
  //   1. inversion: targets are resolved latest-first; each affecting
  //      chain is walked and its inverse actions performed back to back,
  //      with no affected-scan (and hence no analysis refresh) in between;
  //   2. adjudication: each inverted record's affected region is computed
  //      against the settled program and the Figure-4 scans run once per
  //      record, sharing one analysis refresh per mutation-free stretch.
  // Duplicate and already-undone stamps are skipped; unknown stamps and
  // edits throw ProgramError (nothing partial is left behind when the
  // caller wraps the batch in a transaction, as Session::UndoSet does).
  // Returns the aggregated stats; `undone` (optional) receives the stamp
  // of every record the plan removed, cascades included, in stamp order.
  UndoStats UndoSet(const std::vector<OrderStamp>& stamps,
                    std::vector<OrderStamp>* undone = nullptr);

  // The reverse-application-order baseline of [5]: undo the most recently
  // applied live transformation. Returns its stamp (kNoStamp if none).
  OrderStamp UndoLast();

  // Would Undo(stamp) succeed without being blocked by an edit?
  bool CanUndo(OrderStamp stamp, std::string* reason = nullptr);

  // What Undo(stamp) would remove, without performing it. The *affecting*
  // chain (post-pattern walk) is exact; the *affected* set is the
  // candidates the scan would safety-check (region ∩ reverse-destroy), an
  // over-approximation of the actual ripple since safety can only be
  // evaluated against post-inverse state. Used by interactive front ends
  // to warn before a destructive-feeling undo.
  struct UndoPreview {
    bool possible = false;
    std::string blocked_reason;           // set when !possible
    std::vector<OrderStamp> affecting;    // undone first, in order
    std::vector<OrderStamp> may_ripple;   // candidates the scan will check
  };
  UndoPreview Preview(OrderStamp stamp);

  const UndoOptions& options() const { return options_; }
  const InteractionTable& table() const { return table_; }

  // Optional decision trace; the engine appends one event per Figure-4
  // step of every subsequent Undo. Pass null to stop tracing. While a
  // trace is attached the scans run on the seed's linear path so the
  // event sequence is exactly the documented one.
  void set_trace(UndoTrace* trace) { trace_ = trace; }

  // Where depth-guard exhaustion is accounted (RecoveryReport::
  // undo_depth_exhausted); Session wires its report in. Optional.
  void set_recovery(RecoveryReport* recovery) { recovery_ = recovery; }

  // The persistent candidate index (null when options().indexed is off);
  // exposed for coherence tests.
  RegionIndex* region_index() { return index_.get(); }

 private:
  void Trace(UndoTraceEvent event) {
    if (trace_ != nullptr) trace_->Add(std::move(event));
  }
  void NoteDepthExhausted();

  // The read-only affecting-chain walk behind CanUndo and Preview: follow
  // each blocked post-pattern to the transformation that must be undone
  // first, without undoing anything. In the real undo each step unblocks
  // the next check, which the walk approximates by following the chain
  // head.
  struct ChainWalk {
    enum class End {
      kResolved,      // the last record's post-pattern validates
      kUnidentified,  // blocked, no affecting transformation identified
      kEdit,          // blocked by a user edit (or an unknown stamp)
      kExhausted,     // no end within options().max_depth steps
    };
    End end = End::kResolved;
    std::vector<OrderStamp> chain;  // the affecting records, walk order
    OrderStamp blocker = kNoStamp;  // the edit, when end == kEdit
    std::string condition;          // the failing post-pattern condition
  };
  ChainWalk WalkChain(const TransformRecord& rec);

  // Figure 4, once: the blocker loop (lines 4-11, recursing into itself),
  // then the inverse actions (line 12). With `deferred` null the record
  // is adjudicated at once; otherwise it is appended to `deferred` for
  // UndoSet's wave 2.
  struct PlannedInversion {
    TransformRecord* rec;
    std::vector<ActionId> inverted;
  };
  void UndoOne(TransformRecord& rec, UndoStats& stats, int depth,
               std::vector<PlannedInversion>* deferred);
  std::vector<ActionId> InvertActions(TransformRecord& rec,
                                      UndoStats& stats);
  // Lines 15-29 for one inverted record: the affected region, the
  // affected and restored scans, and the closing trace event. When
  // `suffix_revert` holds the inversion restored a previously-extant
  // state, and only the closing event remains (see RevertsASuffix).
  void Adjudicate(TransformRecord& rec, const std::vector<ActionId>& inverted,
                  UndoStats& stats, int depth, bool suffix_revert);
  // Optimized-planner fast path (active with the region index, without an
  // attached trace): proves "no live record has a later stamp than
  // `undone`" with a capped backwards probe of the stamp-ordered history.
  // When it holds, the affected-scan is vacuously empty and the affected
  // *region* — whose computation re-derives analyses after the inversion
  // burst — is never needed; the caller skips both. A reject-style undo
  // (newest record) resolves in O(1). Returns false when unproven,
  // including past the probe cap.
  bool ProvablyNoLiveLaterThan(const TransformRecord& undone) const;
  // The scans' half of the fast path: the inversions down to `oldest`
  // restored a previously-extant state. That needs nothing later live
  // (ProvablyNoLiveLaterThan) and `oldest` stamped above the history's
  // out-of-order mark: no earlier record was inverted since it was
  // applied. A cascade's own record fails the second test when the undo
  // that reached it inverted an earlier record first.
  bool RevertsASuffix(const TransformRecord& oldest) const;
  // The two Figure-4 scans. Each has one adjudication loop; only the
  // candidate source differs: the RegionIndex when present and no trace
  // is attached, the stamp-ordered history otherwise.
  void ScanAffected(TransformRecord& undone, const AffectedRegion& region,
                    UndoStats& stats, int depth);
  void ScanRestored(TransformRecord& undone,
                    const std::vector<ActionId>& inverted, UndoStats& stats,
                    int depth);
  void TraceCandidate(UndoTraceEvent::Kind kind, const TransformRecord& undone,
                      const TransformRecord& candidate, int depth);

  AnalysisCache& analyses_;
  Journal& journal_;
  History& history_;
  UndoOptions options_;
  InteractionTable table_;
  std::unique_ptr<RegionIndex> index_;  // present when options_.indexed
  RecoveryReport* recovery_ = nullptr;
  UndoTrace* trace_ = nullptr;
};

}  // namespace pivot

#endif  // PIVOT_CORE_UNDO_ENGINE_H_
