// Persistent record-footprint index for the undo planner.
//
// The Figure-4 scans answer two queries per undo:
//   * ScanAffected: which records does this AffectedRegion contain?
//   * ScanRestored: which records are anchored inside these restored
//     subtrees?
// The seed engine answers both by walking the entire history and running
// the exact containment predicate on every record — O(|history| ·
// subtree-walk) per undo. The index inverts the predicate instead: each
// record's *footprint* (the statement ids it references and the names
// those subtrees touch — exactly the inputs AffectedRegion::ContainsRecord
// consults) is kept in two hash maps, stmt-id → records and name →
// records, so a query unions a few buckets and touches only records that
// can possibly match.
//
// The index returns a SUPERSET of the exact answer (footprints may be
// conservatively stale, see below); callers re-run the exact predicate on
// each returned record, which makes index-driven scans produce *identical
// candidate sets* to the full scan — the property tests lock this in.
//
// The two halves of a footprint age very differently, and the index
// exploits that:
//   * The referenced ids (site, aux, action targets) are frozen when the
//     record is created — no later mutation can change them. They are
//     computed once, on the first sync after the record lands, and never
//     recomputed. AnchoredIn consults only these buckets, so the
//     restored-scan query never pays name maintenance.
//   * The *names* under those ids are a property of the current program
//     and drift with every mutation near a footprint. They are refreshed
//     lazily, and only when a Candidates query — the only consumer of the
//     name buckets — actually runs. A client that applies and rejects
//     proposals in a tight loop (the searcher) never triggers a name
//     refresh at all: its rejects undo the newest record, whose
//     affected-scan is provably empty before any index query is needed.
//
// Coherence: the index listens to both streams that can change an answer.
//   * Program mutations (as a Program::MutationListener): dirty
//     statement ids are buffered; the name sync resolves each one and
//     walks its current ancestor chain — every indexed record referencing
//     a statement on that chain gets its names recomputed. A dirty id
//     that no longer resolves was retired, which can only shrink true
//     footprints, so its stale bucket entries merely over-approximate.
//   * History changes (as a History::Listener): Add marks a new entry
//     fresh (footprints are computed lazily, after the record is fully
//     populated); a transaction-rollback Rewind truncates entries — an
//     explicit callback, because RewindTo re-issues order stamps and a
//     stamp-keyed mirror could not detect the truncation on its own.
//
// Undone records are *parked*: dropped from the buckets and excluded from
// query results, because every scan that consumes the index filters them
// anyway and a search-style client (apply, reject, undo, repeat) would
// otherwise accumulate an unbounded tail of dead records that each sync
// keeps re-footprinting. A record undone before it was ever footprinted
// (the searcher's reject, every time) parks directly and never touches a
// bucket. A record can only come back to life through a transaction
// rollback restoring its undone flag, and every rollback ends in
// History::RewindTo — whose listener callback fires *after* the flags are
// restored — so parked entries are re-examined exactly there.
#ifndef PIVOT_CORE_REGION_INDEX_H_
#define PIVOT_CORE_REGION_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pivot/core/history.h"
#include "pivot/core/region.h"

namespace pivot {

class RegionIndex final : public Program::MutationListener,
                          public History::Listener {
 public:
  RegionIndex(Program& program, Journal& journal, History& history);
  ~RegionIndex() override;
  RegionIndex(const RegionIndex&) = delete;
  RegionIndex& operator=(const RegionIndex&) = delete;

  // Brings every footprint (ids and names) up to date with the buffered
  // mutations. Cheap when nothing changed; Candidates calls it implicitly.
  void Sync();

  // Live records whose footprint intersects `region` — a superset of the
  // live records for which region.ContainsRecord() holds — in stamp order.
  // Undone records are never returned (parked, see above). `region` must
  // not be whole-program (the caller scans linearly then).
  std::vector<TransformRecord*> Candidates(const AffectedRegion& region);

  // Live records referencing any statement currently inside the subtrees
  // rooted at `roots` — a superset of ScanRestored's anchored set — in
  // stamp order. Unresolvable root ids are skipped. Needs only the
  // referenced-id buckets, so it never pays a name refresh.
  std::vector<TransformRecord*> AnchoredIn(const std::vector<StmtId>& roots);

  std::size_t size() const { return entries_.size(); }

  // Program::MutationListener
  void OnProgramMutation(StmtId stmt, bool structural) override;
  // History::Listener
  void OnHistoryAdd(TransformRecord& rec) override;
  void OnHistoryRewind(std::size_t new_size) override;

 private:
  struct Entry {
    TransformRecord* rec = nullptr;
    // Referenced statement ids (site, aux, action targets): frozen at
    // record creation, computed once. Empty for fresh (not yet synced)
    // and parked (undone) entries.
    std::vector<StmtId> ref_ids;
    // Names under the resolvable referenced ids at the last name refresh.
    std::vector<std::string> names;
  };

  // Footprints the fresh entries' referenced ids (parking the ones whose
  // record is already dead) — everything AnchoredIn needs.
  void SyncRefs();
  void ComputeRefs(std::uint32_t index);
  void RefreshNames(std::uint32_t index);
  void Park(std::uint32_t index);
  void RemoveFromBuckets(std::uint32_t index);
  std::vector<TransformRecord*> CollectSorted(
      const std::unordered_set<std::uint32_t>& hits) const;

  Program& program_;
  Journal& journal_;
  History& history_;

  // entries_[i] mirrors history_.records()[i]; deque addresses are stable.
  std::vector<Entry> entries_;
  std::unordered_map<StmtId, std::vector<std::uint32_t>> by_ref_;
  std::unordered_map<std::string, std::vector<std::uint32_t>> by_name_;

  std::unordered_set<StmtId> dirty_stmts_;
  // Entries added (or resurrected by a rewind) whose referenced ids are
  // not computed yet.
  std::vector<std::uint32_t> fresh_;
  // Entries whose names must be recomputed before the next Candidates
  // query. An explicit set (not a per-entry flag swept linearly) keeps the
  // sync proportional to the change, not to the history length.
  std::unordered_set<std::uint32_t> stale_names_;
  // Undone entries, out of the buckets until a history rewind (the only
  // event that can resurrect a record) sends them back through the fresh
  // list for re-examination.
  std::unordered_set<std::uint32_t> parked_;
  bool all_dirty_ = false;  // unattributed structural change (BumpEpoch)
};

}  // namespace pivot

#endif  // PIVOT_CORE_REGION_INDEX_H_
