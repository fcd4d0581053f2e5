#include "pivot/core/undo_engine.h"

#include <algorithm>
#include <unordered_set>

#include "pivot/ir/stmt.h"
#include "pivot/support/diagnostics.h"
#include "pivot/support/fault_injector.h"
#include "pivot/transform/catalog.h"

namespace pivot {

UndoStats& UndoStats::operator+=(const UndoStats& other) {
  transforms_undone += other.transforms_undone;
  actions_inverted += other.actions_inverted;
  candidates_total += other.candidates_total;
  candidates_in_region += other.candidates_in_region;
  candidates_marked += other.candidates_marked;
  safety_checks += other.safety_checks;
  reversibility_checks += other.reversibility_checks;
  analysis_rebuilds += other.analysis_rebuilds;
  fault_crossings += other.fault_crossings;
  return *this;
}

namespace {

InteractionTable SelectTable(const UndoOptions& options) {
  switch (options.heuristic) {
    case UndoOptions::Heuristic::kConservative:
      return InteractionTable::Conservative();
    case UndoOptions::Heuristic::kPublished:
      return InteractionTable::Published();
    case UndoOptions::Heuristic::kCustom:
      return options.custom;
  }
  PIVOT_UNREACHABLE("heuristic");
}

}  // namespace

UndoEngine::UndoEngine(AnalysisCache& analyses, Journal& journal,
                       History& history, UndoOptions options)
    : analyses_(analyses),
      journal_(journal),
      history_(history),
      options_(std::move(options)),
      table_(SelectTable(options_)) {
  if (options_.indexed) {
    index_ = std::make_unique<RegionIndex>(analyses_.program(), journal_,
                                           history_);
  }
}

void UndoEngine::NoteDepthExhausted() {
  if (recovery_ != nullptr) ++recovery_->undo_depth_exhausted;
}

namespace {

UndoTraceEvent MakeEvent(UndoTraceEvent::Kind kind,
                         const TransformRecord& rec, int depth) {
  UndoTraceEvent event;
  event.kind = kind;
  event.depth = depth;
  event.target = rec.stamp;
  event.target_kind = rec.kind;
  return event;
}

// Runs `body` and fills in the two counters measured around a whole undo.
template <typename Body>
UndoStats Measured(const AnalysisCache& analyses, Body&& body) {
  UndoStats stats;
  const std::uint64_t rebuilds_before = analyses.rebuild_count();
  const std::uint64_t crossings_before = FaultInjector::Instance().crossings();
  body(stats);
  stats.analysis_rebuilds = analyses.rebuild_count() - rebuilds_before;
  stats.fault_crossings =
      FaultInjector::Instance().crossings() - crossings_before;
  return stats;
}

// Why a stamp cannot start an undo at all (null when it can).
const char* NotUndoable(const TransformRecord* rec) {
  if (rec == nullptr) return "unknown transformation";
  if (rec->is_edit) return "edits are not undoable";
  if (rec->undone) return "already undone";
  return nullptr;
}

std::string DepthExhausted(int max_depth) {
  return "affecting chain did not terminate within max_depth (" +
         std::to_string(max_depth) + ")";
}

}  // namespace

UndoStats UndoEngine::Undo(OrderStamp stamp) {
  TransformRecord* rec = history_.FindByStamp(stamp);
  PIVOT_CHECK_MSG(rec != nullptr, "unknown transformation stamp");
  if (rec->is_edit) {
    throw ProgramError("user edits cannot be undone by the transformation "
                       "undo machinery");
  }
  if (rec->undone) return {};
  return Measured(analyses_, [&](UndoStats& stats) {
    UndoOne(*rec, stats, 0, nullptr);
  });
}

OrderStamp UndoEngine::UndoLast() {
  TransformRecord* rec = history_.LastLive();
  if (rec == nullptr) return kNoStamp;
  UndoStats stats;
  UndoOne(*rec, stats, 0, nullptr);
  return rec->stamp;
}

UndoEngine::ChainWalk UndoEngine::WalkChain(const TransformRecord& rec) {
  ChainWalk walk;
  const TransformRecord* cur = &rec;
  for (int guard = 0; guard < options_.max_depth; ++guard) {
    const Reversibility rev =
        GetTransformation(cur->kind).CheckReversibility(analyses_, journal_,
                                                        *cur);
    if (rev.ok) return walk;
    walk.condition = rev.condition;
    if (rev.affecting == kNoStamp) {
      walk.end = ChainWalk::End::kUnidentified;
      return walk;
    }
    const TransformRecord* next = history_.FindByStamp(rev.affecting);
    if (next == nullptr || next->is_edit) {
      walk.end = ChainWalk::End::kEdit;
      walk.blocker = rev.affecting;
      return walk;
    }
    walk.chain.push_back(next->stamp);
    cur = next;
  }
  // Guard exhaustion is a blocked undo, not a success with a truncated
  // chain.
  NoteDepthExhausted();
  walk.end = ChainWalk::End::kExhausted;
  return walk;
}

bool UndoEngine::CanUndo(OrderStamp stamp, std::string* reason) {
  const TransformRecord* rec = history_.FindByStamp(stamp);
  std::string why;
  if (const char* not_undoable = NotUndoable(rec)) {
    why = not_undoable;
  } else {
    // An undo is blocked exactly when the chain reaches an edit or an
    // unidentifiable cause.
    const ChainWalk walk = WalkChain(*rec);
    switch (walk.end) {
      case ChainWalk::End::kResolved:
        return true;
      case ChainWalk::End::kUnidentified:
        why = "blocked: " + walk.condition +
              " (no affecting transformation identified)";
        break;
      case ChainWalk::End::kEdit:
        why = "blocked by user edit (t" + std::to_string(walk.blocker) +
              "): " + walk.condition;
        break;
      case ChainWalk::End::kExhausted:
        why = DepthExhausted(options_.max_depth);
        break;
    }
  }
  if (reason != nullptr) *reason = std::move(why);
  return false;
}

UndoEngine::UndoPreview UndoEngine::Preview(OrderStamp stamp) {
  UndoPreview preview;
  const TransformRecord* rec = history_.FindByStamp(stamp);
  if (const char* not_undoable = NotUndoable(rec)) {
    preview.blocked_reason = not_undoable;
    return preview;
  }
  ChainWalk walk = WalkChain(*rec);
  switch (walk.end) {
    case ChainWalk::End::kResolved:
      break;
    case ChainWalk::End::kUnidentified:
      preview.blocked_reason = "blocked: " + walk.condition;
      return preview;
    case ChainWalk::End::kEdit:
      preview.blocked_reason =
          "blocked by user edit t" + std::to_string(walk.blocker);
      return preview;
    case ChainWalk::End::kExhausted:
      preview.blocked_reason = DepthExhausted(options_.max_depth);
      return preview;
  }
  preview.possible = true;
  preview.affecting = std::move(walk.chain);
  // The candidates the affected scan would examine: later live records
  // marked in the reverse-destroy table. Regional pruning cannot be
  // anticipated exactly (the region exists only after the inverse actions
  // run), so the preview lists the table-marked superset.
  for (TransformRecord& later : history_.records()) {
    if (later.undone || later.is_edit || later.stamp <= rec->stamp) continue;
    if (std::find(preview.affecting.begin(), preview.affecting.end(),
                  later.stamp) != preview.affecting.end()) {
      continue;
    }
    if (table_.Enables(rec->kind, later.kind)) {
      preview.may_ripple.push_back(later.stamp);
    }
  }
  return preview;
}

UndoStats UndoEngine::UndoSet(const std::vector<OrderStamp>& stamps,
                              std::vector<OrderStamp>* undone) {
  return Measured(analyses_, [&](UndoStats& stats) {
    std::vector<TransformRecord*> targets;
    std::unordered_set<OrderStamp> requested;
    for (const OrderStamp stamp : stamps) {
      TransformRecord* rec = history_.FindByStamp(stamp);
      if (rec == nullptr) {
        throw ProgramError("UndoSet: unknown transformation stamp t" +
                           std::to_string(stamp));
      }
      if (rec->is_edit) {
        throw ProgramError("user edits cannot be undone by the "
                           "transformation undo machinery");
      }
      if (!requested.insert(stamp).second) continue;
      targets.push_back(rec);
    }
    std::unordered_set<OrderStamp> undone_before;
    if (undone != nullptr) {
      for (const TransformRecord& rec : history_.records()) {
        if (rec.undone) undone_before.insert(rec.stamp);
      }
    }

    // Wave 1 — inversion: latest-first, so a target's affecting chain
    // meets as few still-live later records as possible. Inverse actions
    // run back to back; no affected-scan (hence no analysis re-derivation)
    // happens until the whole set is inverted.
    std::sort(targets.begin(), targets.end(),
              [](const TransformRecord* a, const TransformRecord* b) {
                return a->stamp > b->stamp;
              });
    std::vector<PlannedInversion> plan;
    plan.reserve(targets.size());
    for (TransformRecord* rec : targets) {
      // Already undone before the call, or inverted as an earlier target's
      // affecting blocker: nothing left to plan for it.
      if (rec->undone) continue;
      UndoOne(*rec, stats, 0, &plan);
    }

    // Wave 2 — adjudication, one record at a time in inversion order. The
    // first analysis query re-derives once for the whole wave-1 mutation
    // burst; later records re-derive only when a cascade in between
    // actually mutated the program again. Same LIFO fast path as UndoOne,
    // but the proof must cover the *whole* plan: probing per record would
    // accept a mixed plan (oldest target inverted, a live interloper in
    // between, newest target probing clean) whose wave-1 burst did not
    // restore a previously-extant state. Probing from the oldest planned
    // record decides suffix purity for everyone; the out-of-order mark
    // covers the inversions wave 1 made itself.
    const TransformRecord* oldest_planned = nullptr;
    for (const PlannedInversion& inversion : plan) {
      if (oldest_planned == nullptr ||
          inversion.rec->stamp < oldest_planned->stamp) {
        oldest_planned = inversion.rec;
      }
    }
    const bool suffix_revert =
        oldest_planned != nullptr && RevertsASuffix(*oldest_planned);
    for (const PlannedInversion& inversion : plan) {
      Adjudicate(*inversion.rec, inversion.inverted, stats, 0,
                 suffix_revert);
    }

    if (undone != nullptr) {
      for (const TransformRecord& rec : history_.records()) {
        if (rec.undone && !rec.is_edit &&
            undone_before.count(rec.stamp) == 0) {
          undone->push_back(rec.stamp);
        }
      }
    }
  });
}

void UndoEngine::UndoOne(TransformRecord& rec, UndoStats& stats, int depth,
                         std::vector<PlannedInversion>* deferred) {
  if (depth >= options_.max_depth) {
    NoteDepthExhausted();
    throw ProgramError("undo recursion exceeded max_depth (" +
                       std::to_string(options_.max_depth) + ")");
  }
  if (rec.undone) return;
  const Transformation& transformation = GetTransformation(rec.kind);
  Trace(MakeEvent(UndoTraceEvent::Kind::kBegin, rec, depth));

  // Lines 4-11: undo affecting transformations until the post-pattern of
  // t_i validates. In a batch, a blocker's own adjudication is deferred
  // with the rest of the plan.
  //
  // LIFO fast path, front half (§10): a reversibility blocker is always a
  // *later live* action, so when nothing live is later than `rec` the
  // blocker loop is vacuous. Journal::Invert still re-checks CanInvert for
  // every action it inverts, so the proof is enforced below, not assumed.
  // Re-probing per round lets a resolved blocker cascade end the loop.
  while (!ProvablyNoLiveLaterThan(rec)) {
    ++stats.reversibility_checks;
    const Reversibility rev =
        transformation.CheckReversibility(analyses_, journal_, rec);
    if (rev.ok) {
      Trace(MakeEvent(UndoTraceEvent::Kind::kPostPatternOk, rec, depth));
      break;
    }
    if (rev.affecting == kNoStamp) {
      throw ProgramError(
          "cannot undo t" + std::to_string(rec.stamp) + " (" +
          std::string(TransformKindName(rec.kind)) + "): " + rev.condition);
    }
    TransformRecord* affecting = history_.FindByStamp(rev.affecting);
    {
      UndoTraceEvent event =
          MakeEvent(UndoTraceEvent::Kind::kPostPatternBlocked, rec, depth);
      event.other = rev.affecting;
      if (affecting != nullptr) event.other_kind = affecting->kind;
      event.detail = rev.condition;
      Trace(std::move(event));
    }
    PIVOT_CHECK_MSG(affecting != nullptr, "affecting stamp not in history");
    if (affecting->is_edit) {
      throw ProgramError("cannot undo t" + std::to_string(rec.stamp) +
                         ": blocked by user edit t" +
                         std::to_string(rev.affecting) + " (" +
                         rev.condition + ")");
    }
    PIVOT_CHECK_MSG(!affecting->undone,
                    "post-pattern blocked by an already-undone transform");
    PIVOT_FAULT_POINT("undo.affecting.recurse");
    UndoOne(*affecting, stats, depth + 1, deferred);
  }

  // Line 12: perform the inverse actions (reverse application order).
  history_.NoteInversion(rec);
  std::vector<ActionId> inverted = InvertActions(rec, stats);
  rec.undone = true;
  ++stats.transforms_undone;
  {
    UndoTraceEvent event =
        MakeEvent(UndoTraceEvent::Kind::kInverseActions, rec, depth);
    event.count = static_cast<long>(inverted.size());
    Trace(std::move(event));
  }
  if (deferred != nullptr) {
    deferred->push_back(PlannedInversion{&rec, std::move(inverted)});
    return;
  }
  // Line 13: dependence and data-flow update — analyses are re-derived
  // lazily from the bumped program epoch.
  Adjudicate(rec, inverted, stats, depth, RevertsASuffix(rec));
}

void UndoEngine::Adjudicate(TransformRecord& rec,
                            const std::vector<ActionId>& inverted,
                            UndoStats& stats, int depth, bool suffix_revert) {
  // LIFO fast path (optimized planner only): when nothing live is later
  // than the inverted records, the undo is classical reverse-order
  // rollback — the trivial case the paper's independent-order machinery
  // generalizes. Inverting the actions restores a previously-extant
  // program state byte-for-byte, so there is nothing to adjudicate: the
  // affected set is vacuously empty, and every earlier record anchored in
  // a restored site carries exactly the safety status it already had in
  // that state. Skipping the scans also skips the region derivation and
  // the safety checks' analysis windows — which is what keeps a
  // search-style reject O(inverse actions) instead of O(live history).
  PIVOT_FAULT_POINT("undo.region.pre");
  if (!suffix_revert) {
    // Line 15: determine the affected region.
    const AffectedRegion region =
        options_.regional ? AffectedRegion::FromInvertedActions(
                                analyses_, journal_, inverted)
                          : AffectedRegion::WholeProgram();
    UndoTraceEvent event = MakeEvent(UndoTraceEvent::Kind::kRegion, rec, depth);
    event.count = region.whole_program()
                      ? -1
                      : static_cast<long>(region.StmtCount());
    Trace(std::move(event));
    // Lines 16-29: detect and undo affected transformations.
    ScanAffected(rec, region, stats, depth);
    // Beyond Figure 4: transformations performed *before* this one whose
    // sites were just restored must be re-validated too (see ScanRestored).
    ScanRestored(rec, inverted, stats, depth);
  }
  Trace(MakeEvent(UndoTraceEvent::Kind::kDone, rec, depth));
}

std::vector<ActionId> UndoEngine::InvertActions(TransformRecord& rec,
                                                UndoStats& stats) {
  std::vector<ActionId> inverted;
  inverted.reserve(rec.actions.size());
  for (auto it = rec.actions.rbegin(); it != rec.actions.rend(); ++it) {
    if (journal_.record(*it).undone) continue;
    journal_.Invert(*it);
    inverted.push_back(*it);
    ++stats.actions_inverted;
  }
  return inverted;
}

bool UndoEngine::RevertsASuffix(const TransformRecord& oldest) const {
  return oldest.stamp > history_.out_of_order_mark() &&
         ProvablyNoLiveLaterThan(oldest);
}

bool UndoEngine::ProvablyNoLiveLaterThan(const TransformRecord& undone) const {
  if (index_ == nullptr || trace_ != nullptr) return false;
  // History order is stamp order, so a backwards probe decides the
  // property. Later *undone* transform records contribute nothing (their
  // actions are already inverted); a later live record or a later user
  // edit defeats the proof — the first is a real affected-scan candidate,
  // the second means the post-undo state is not a previously-extant one.
  // The probe is capped: a batch revert of a long suffix would otherwise
  // re-walk the freshly-undone tail once per planned record. Past the cap
  // the regular machinery answers (it tolerates a non-empty set anyway).
  int probes = 64;
  for (auto it = history_.records().rbegin(); it != history_.records().rend();
       ++it) {
    if (it->stamp <= undone.stamp) return true;
    if (it->is_edit || !it->undone) return false;
    if (--probes == 0) return false;  // unproven
  }
  return true;
}

void UndoEngine::TraceCandidate(UndoTraceEvent::Kind kind,
                                const TransformRecord& undone,
                                const TransformRecord& candidate, int depth) {
  if (trace_ == nullptr) return;
  UndoTraceEvent event = MakeEvent(kind, undone, depth);
  event.other = candidate.stamp;
  event.other_kind = candidate.kind;
  trace_->Add(std::move(event));
}

void UndoEngine::ScanAffected(TransformRecord& undone,
                              const AffectedRegion& region, UndoStats& stats,
                              int depth) {
  using Kind = UndoTraceEvent::Kind;
  // The index prunes candidate *enumeration* to a footprint superset; the
  // exact containment predicate below keeps the adjudicated set identical
  // to the history's. A whole-program region matches everything, and an
  // attached trace expects one event per later live record.
  const bool indexed =
      index_ != nullptr && trace_ == nullptr && !region.whole_program();
  Program& program = analyses_.program();
  // Line 18 (k > i). A cascade mutates the program, which can pull
  // records into the region that were outside it before: the history
  // source sees that lazily, the index is re-queried past the last
  // candidate already adjudicated (neither ever revisits one).
  OrderStamp resume = undone.stamp;
  for (bool requery = true; requery;) {
    requery = false;
    const std::vector<TransformRecord*> candidates =
        indexed ? index_->Candidates(region) : history_.Live();
    for (TransformRecord* candidate : candidates) {
      // Undone: removed by a deeper recursion.
      if (candidate->stamp <= resume || candidate->undone ||
          candidate->is_edit) {
        continue;
      }
      resume = candidate->stamp;
      ++stats.candidates_total;
      // The space coordinate: only transformations in the affected region.
      if (!region.ContainsRecord(program, journal_, *candidate)) {
        TraceCandidate(Kind::kCandidateOutsideRegion, undone, *candidate,
                       depth);
        continue;
      }
      ++stats.candidates_in_region;
      // Line 20: the reverse-destroy heuristic.
      if (!table_.Enables(undone.kind, candidate->kind)) {
        TraceCandidate(Kind::kCandidateUnmarked, undone, *candidate, depth);
        continue;
      }
      ++stats.candidates_marked;
      // Lines 22-25: full safety re-evaluation; ripple when violated.
      ++stats.safety_checks;
      const Transformation& t = GetTransformation(candidate->kind);
      if (t.CheckSafety(analyses_, journal_, *candidate)) {
        TraceCandidate(Kind::kCandidateSafe, undone, *candidate, depth);
        continue;
      }
      TraceCandidate(Kind::kCandidateUnsafe, undone, *candidate, depth);
      PIVOT_FAULT_POINT("undo.cascade.recurse");
      UndoOne(*candidate, stats, depth + 1, nullptr);
      if (indexed) {
        requery = true;
        break;
      }
    }
  }
}

namespace {

// Is the statement with `id` attached and inside one of the subtrees
// rooted at `restored`? (The restored-anchor predicate; roots that were
// detached or retired by an intervening cascade simply stop matching.)
bool InsideRestored(Program& program, const std::vector<StmtId>& restored,
                    StmtId id) {
  if (!id.valid()) return false;
  const Stmt* stmt = program.FindStmt(id);
  if (stmt == nullptr || !stmt->attached) return false;
  for (const StmtId root_id : restored) {
    const Stmt* root = program.FindStmt(root_id);
    if (root == nullptr) continue;
    if (root->id == id || IsAncestorOf(*root, *stmt)) return true;
  }
  return false;
}

bool AnchoredInRestored(Program& program, const Journal& journal,
                        const std::vector<StmtId>& restored,
                        const TransformRecord& rec) {
  if (InsideRestored(program, restored, rec.site.s1) ||
      InsideRestored(program, restored, rec.site.s2)) {
    return true;
  }
  for (const ActionId action_id : rec.actions) {
    const ActionRecord& action = journal.record(action_id);
    if (InsideRestored(program, restored, action.stmt) ||
        InsideRestored(program, restored, action.expr_owner)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void UndoEngine::ScanRestored(TransformRecord& undone,
                              const std::vector<ActionId>& inverted,
                              UndoStats& stats, int depth) {
  // The Figure-4 scan only examines *later* transformations (line 18:
  // k > i), on the premise that performing a transformation never destroys
  // an earlier one's safety. Undo breaks that premise in one spot: while a
  // statement is deleted by a live transformation, earlier transformations
  // anchored in it defer their safety question to the deletion (the
  // consumed-by-live-transformation case of CheckSafety). Inverting the
  // Delete re-attaches the statement and revives those deferred
  // obligations — against a program that intermediate undos may have
  // changed since they last held. So: re-validate every earlier live
  // transformation whose site lies inside a subtree this undo restored.
  Program& program = analyses_.program();
  std::vector<StmtId> restored;
  restored.reserve(inverted.size());
  for (ActionId id : inverted) {
    const ActionRecord& action = journal_.record(id);
    if (action.kind != ActionKind::kDelete) continue;
    const Stmt* root = program.FindStmt(action.stmt);
    if (root != nullptr && root->attached) restored.push_back(action.stmt);
  }
  if (restored.empty()) return;
  // Candidate sources as in ScanAffected: the index pre-selects by
  // referenced-id membership, and the exact anchored predicate keeps the
  // checked set identical to the history's.
  const bool indexed = index_ != nullptr && trace_ == nullptr;
  OrderStamp resume = kNoStamp;
  for (bool requery = true; requery;) {
    requery = false;
    const std::vector<TransformRecord*> candidates =
        indexed ? index_->AnchoredIn(restored) : history_.Live();
    for (TransformRecord* candidate : candidates) {
      if (candidate->stamp <= resume || candidate->stamp >= undone.stamp ||
          candidate->undone || candidate->is_edit ||
          !AnchoredInRestored(program, journal_, restored, *candidate)) {
        continue;
      }
      resume = candidate->stamp;
      ++stats.safety_checks;
      const Transformation& t = GetTransformation(candidate->kind);
      if (t.CheckSafety(analyses_, journal_, *candidate)) continue;
      TraceCandidate(UndoTraceEvent::Kind::kCandidateUnsafe, undone,
                     *candidate, depth);
      PIVOT_FAULT_POINT("undo.cascade.recurse");
      UndoOne(*candidate, stats, depth + 1, nullptr);
      if (indexed) {
        requery = true;
        break;
      }
    }
  }
}

}  // namespace pivot
