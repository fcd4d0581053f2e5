#include "pivot/core/history.h"

#include <algorithm>
#include <sstream>

#include "pivot/support/diagnostics.h"

namespace pivot {

void History::AddListener(Listener* listener) {
  listeners_.push_back(listener);
}

void History::RemoveListener(Listener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

TransformRecord& History::Add(TransformRecord rec) {
  PIVOT_CHECK_MSG(rec.stamp != kNoStamp, "record must carry a stamp");
  records_.push_back(std::move(rec));
  TransformRecord& added = records_.back();
  by_stamp_[added.stamp] = &added;
  for (Listener* l : listeners_) l->OnHistoryAdd(added);
  return added;
}

TransformRecord* History::FindByStamp(OrderStamp stamp) {
  auto it = by_stamp_.find(stamp);
  return it == by_stamp_.end() ? nullptr : it->second;
}

const TransformRecord* History::FindByStamp(OrderStamp stamp) const {
  return const_cast<History*>(this)->FindByStamp(stamp);
}

std::vector<TransformRecord*> History::Live() {
  std::vector<TransformRecord*> live;
  for (TransformRecord& rec : records_) {
    if (!rec.undone && !rec.is_edit) live.push_back(&rec);
  }
  return live;
}

TransformRecord* History::LastLive() {
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (!it->undone && !it->is_edit) return &*it;
  }
  return nullptr;
}

void History::NoteInversion(const TransformRecord& rec) {
  const OrderStamp newest = next_ - 1;
  if (out_of_order_mark_ >= newest) return;
  for (auto it = records_.rbegin();
       it != records_.rend() && it->stamp > rec.stamp; ++it) {
    if (!it->undone) {
      out_of_order_mark_ = newest;
      return;
    }
  }
}

void History::RewindTo(std::size_t size, OrderStamp next_stamp,
                       OrderStamp out_of_order_mark) {
  PIVOT_CHECK(size <= records_.size() && next_stamp <= next_);
  while (records_.size() > size) {
    by_stamp_.erase(records_.back().stamp);
    records_.pop_back();
  }
  next_ = next_stamp;
  out_of_order_mark_ = out_of_order_mark;
  for (Listener* l : listeners_) l->OnHistoryRewind(size);
}

void History::RestoreState(std::deque<TransformRecord> records,
                           OrderStamp next_stamp) {
  PIVOT_CHECK_MSG(records_.empty() && next_ == 1,
                  "RestoreState requires an empty history");
  for (TransformRecord& rec : records) {
    PIVOT_CHECK(rec.stamp != kNoStamp && rec.stamp < next_stamp);
    Add(std::move(rec));
  }
  next_ = next_stamp;
  out_of_order_mark_ = next_stamp - 1;
}

std::string History::ToString(const Program& program) const {
  std::ostringstream os;
  for (const TransformRecord& rec : records_) {
    os << "t" << rec.stamp << " ";
    if (rec.is_edit) {
      os << "EDIT";
    } else {
      os << TransformKindName(rec.kind);
    }
    os << ": " << (rec.summary.empty() ? rec.site.Describe(program)
                                       : rec.summary);
    if (rec.undone) os << "  [undone]";
    os << '\n';
  }
  return os.str();
}

}  // namespace pivot
