// The transformation history: T = { t_1, t_2, ..., t_n }.
//
// Order stamps are issued here and never reused; user edits are recorded
// as pseudo-entries (is_edit) so that reversibility analysis can identify
// an edit as the blocker of an undo (edits are never undoable).
#ifndef PIVOT_CORE_HISTORY_H_
#define PIVOT_CORE_HISTORY_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "pivot/transform/transform.h"

namespace pivot {

class History {
 public:
  // Observes structural changes to the history itself. The region index
  // mirrors one entry per record; transaction rollback pops records whose
  // stamps may later be *reused* (RewindTo resets the stamp counter), so a
  // mirror keyed by stamp cannot infer truncation by diffing — it needs an
  // explicit callback.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void OnHistoryAdd(TransformRecord& rec) = 0;
    virtual void OnHistoryRewind(std::size_t new_size) = 0;
  };

  OrderStamp NextStamp() { return next_++; }

  void AddListener(Listener* listener);
  void RemoveListener(Listener* listener);

  TransformRecord& Add(TransformRecord rec);

  TransformRecord* FindByStamp(OrderStamp stamp);
  const TransformRecord* FindByStamp(OrderStamp stamp) const;

  const std::deque<TransformRecord>& records() const { return records_; }
  std::deque<TransformRecord>& records() { return records_; }

  // Applied-and-not-undone transformations (edits excluded), in order.
  std::vector<TransformRecord*> Live();

  // The latest live transformation, or null: the reverse-order undo
  // baseline targets this.
  TransformRecord* LastLive();

  std::string ToString(const Program& program) const;

  // --- Out-of-order inversions ---
  // The newest stamp that existed when a record was inverted while a later
  // record was still live (kNoStamp: never). A record stamped above it was
  // applied after every such inversion, so once nothing later is live,
  // inverting it restores the state it was applied to — the undo engine's
  // LIFO fast path rests on that.
  OrderStamp out_of_order_mark() const { return out_of_order_mark_; }
  // Called as `rec` is inverted: raises the mark to the newest stamp when
  // a record later than `rec` is still live (edits always are).
  void NoteInversion(const TransformRecord& rec);

  // --- Transaction rollback ---
  std::size_t size() const { return records_.size(); }
  OrderStamp next_stamp() const { return next_; }

  // Drops records added after the mark and returns the stamp counter and
  // the out-of-order mark to their values at transaction start (only the
  // Transaction calls this; it never discards a record an action still
  // refers to, because the same rollback removes those actions too).
  void RewindTo(std::size_t size, OrderStamp next_stamp,
                OrderStamp out_of_order_mark);

  // --- Persistence restore ---
  // Installs a decoded snapshot image into an empty history. Goes through
  // Add() so listeners (the region index) mirror every record, then fast-
  // forwards the stamp counter. The image does not say which inversions
  // were out of order, so the out-of-order mark starts at the newest
  // stamp. Aborts if the history is non-empty.
  void RestoreState(std::deque<TransformRecord> records,
                    OrderStamp next_stamp);

 private:
  // A deque keeps record addresses stable across Add/RewindTo, so the
  // stamp map and the region index may hold pointers into it.
  std::deque<TransformRecord> records_;
  std::unordered_map<OrderStamp, TransformRecord*> by_stamp_;
  std::vector<Listener*> listeners_;
  OrderStamp next_ = 1;
  OrderStamp out_of_order_mark_ = kNoStamp;
};

}  // namespace pivot

#endif  // PIVOT_CORE_HISTORY_H_
