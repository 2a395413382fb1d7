#include "core/covering.h"

#include <algorithm>
#include <stdexcept>

namespace pubsub {

bool RectLess::operator()(const Rect& a, const Rect& b) const {
  if (a.dims() != b.dims()) return a.dims() < b.dims();
  for (std::size_t d = 0; d < a.dims(); ++d) {
    if (a[d].lo() != b[d].lo()) return a[d].lo() < b[d].lo();
    if (a[d].hi() != b[d].hi()) return a[d].hi() < b[d].hi();
  }
  return false;
}

void CoveringTable::subscribe(SubscriberId sub, const Rect& rect) {
  if (sub < 0)
    throw std::invalid_argument("CoveringTable: negative subscriber id");
  if (contains(sub))
    throw std::invalid_argument("CoveringTable: duplicate subscriber");
  if (rect.dims() == 0 || rect.empty())
    throw std::invalid_argument("CoveringTable: empty interest rectangle");

  EntryId e;
  const auto it = by_rect_.find(rect);
  if (it != by_rect_.end()) {
    e = it->second;  // equal-rect dedup: pure refcount churn
  } else {
    e = alloc_entry(rect);
    by_rect_.emplace(rect, e);
    place_entry(e);
  }
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  if (entry_of_.size() <= static_cast<std::size_t>(sub)) {
    entry_of_.resize(static_cast<std::size_t>(sub) + 1, -1);
    pos_.resize(static_cast<std::size_t>(sub) + 1, 0);
  }
  entry_of_[static_cast<std::size_t>(sub)] = e;
  pos_[static_cast<std::size_t>(sub)] =
      static_cast<std::uint32_t>(entry.subs.size());
  entry.subs.push_back(sub);
  ++sub_count_;
  if (entry.parent >= 0) ++covered_subs_;
}

void CoveringTable::unsubscribe(SubscriberId sub) {
  if (!contains(sub))
    throw std::out_of_range("CoveringTable: unknown subscriber");
  const EntryId e = entry_of_[static_cast<std::size_t>(sub)];
  detach_rider(sub);
  --sub_count_;
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  if (entry.parent >= 0) --covered_subs_;
  if (!entry.subs.empty()) return;  // entry still ridden

  by_rect_.erase(entry.rect);
  if (entry.parent >= 0) {
    // Covered child: unlink from the parent (swap-pop, order is internal).
    auto& kids = entries_[static_cast<std::size_t>(entry.parent)].children;
    const auto pos = std::find(kids.begin(), kids.end(), e);
    *pos = kids.back();
    kids.pop_back();
    free_entry(e);
    return;
  }

  // Indexed entry dies: drop it from the index, then re-home its children
  // in ascending id order — each attaches to the smallest-id remaining
  // coverer or is promoted (demoting any siblings it covers).
  indexed_.erase(e);
  index_.erase(e);
  std::vector<EntryId> kids = std::move(entry.children);
  entry.children.clear();
  std::sort(kids.begin(), kids.end());
  for (const EntryId c : kids) {
    Entry& child = entries_[static_cast<std::size_t>(c)];
    const EntryId best = min_coverer(child.rect);
    if (best >= 0) {
      child.parent = best;
      entries_[static_cast<std::size_t>(best)].children.push_back(c);
    } else {
      covered_subs_ -= child.subs.size();
      make_indexed(c);
    }
  }
  free_entry(e);
}

void CoveringTable::update(SubscriberId sub, const Rect& rect) {
  if (!contains(sub))
    throw std::out_of_range("CoveringTable: unknown subscriber");
  if (entries_[static_cast<std::size_t>(entry_of_[static_cast<std::size_t>(
          sub)])].rect == rect)
    return;  // unchanged interest: no churn
  unsubscribe(sub);
  subscribe(sub, rect);
}

void CoveringTable::compact_index() {
  std::vector<std::pair<Rect, int>> items;
  items.reserve(indexed_.size());
  for (const EntryId e : indexed_)
    items.emplace_back(entries_[static_cast<std::size_t>(e)].rect, e);
  // Size rows for every current entry id, so promoting a child later does
  // not re-stride them.  Sized to the indexed ids alone, a promotion of a
  // higher id re-strides every row at double width (steady_1shard peak RSS
  // +0.8 MB).
  index_ = SlabIndex(items, entries_.size());
}

void CoveringTable::expand(EntryId e, const Point& p,
                           std::vector<SubscriberId>& out) const {
  const Entry& entry = entries_[static_cast<std::size_t>(e)];
  out.insert(out.end(), entry.subs.begin(), entry.subs.end());
  for (const EntryId c : entry.children) {
    const Entry& child = entries_[static_cast<std::size_t>(c)];
    if (!child.rect.contains(p)) continue;
    out.insert(out.end(), child.subs.begin(), child.subs.end());
  }
}

CoveringTable::EntryId CoveringTable::alloc_entry(const Rect& rect) {
  if (ndims_ == 0)
    ndims_ = rect.dims();
  else if (rect.dims() != ndims_)
    throw std::invalid_argument("CoveringTable: mixed dimensionality");
  EntryId e;
  if (!free_.empty()) {
    e = free_.back();
    free_.pop_back();
  } else {
    e = static_cast<EntryId>(entries_.size());
    entries_.emplace_back();
  }
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  entry.rect = rect;
  entry.parent = -1;
  ++entry_live_;
  return e;
}

void CoveringTable::free_entry(EntryId e) {
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  entry.rect = Rect();
  entry.parent = -1;
  entry.subs.clear();
  entry.children.clear();
  free_.push_back(e);
  --entry_live_;
  if (entry_live_ == 0) ndims_ = 0;  // an emptied table may adopt new dims
}

// Every coverer contains rect's upper corner, and the stab emits ascending
// ids, so the first hit that contains the whole rectangle is the min-id
// coverer — a canonical choice independent of the index's layout.
CoveringTable::EntryId CoveringTable::min_coverer(const Rect& rect) {
  corner_.clear();
  for (const Interval& iv : rect.intervals()) corner_.push_back(iv.hi());
  index_.stab(corner_, hits_, words_);
  for (const int id : hits_)
    if (entries_[static_cast<std::size_t>(id)].rect.contains(rect)) return id;
  return -1;
}

void CoveringTable::place_entry(EntryId e) {
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  const EntryId best = min_coverer(entry.rect);
  if (best >= 0) {
    entry.parent = best;
    entries_[static_cast<std::size_t>(best)].children.push_back(e);
  } else {
    make_indexed(e);
  }
}

void CoveringTable::make_indexed(EntryId e) {
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  entry.parent = -1;
  indexed_.insert(e);
  index_.insert(entry.rect, e);
  // Demote, in ascending id order, every indexed entry the new rectangle
  // covers — keeps the indexed set exactly the maximal rectangles under
  // containment.  demote() erases only the entry just passed.
  for (auto it = indexed_.begin(); it != indexed_.end();) {
    const EntryId o = *it++;
    if (o != e &&
        entry.rect.contains(entries_[static_cast<std::size_t>(o)].rect))
      demote(o, e);
  }
}

void CoveringTable::demote(EntryId o, EntryId parent) {
  Entry& od = entries_[static_cast<std::size_t>(o)];
  Entry& pd = entries_[static_cast<std::size_t>(parent)];
  indexed_.erase(o);
  index_.erase(o);
  od.parent = parent;
  pd.children.push_back(o);
  covered_subs_ += od.subs.size();
  // Two-level invariant: o's children re-home to the new parent (their
  // rects are contained in o's, hence in the parent's).
  for (const EntryId c : od.children) {
    entries_[static_cast<std::size_t>(c)].parent = parent;
    pd.children.push_back(c);
  }
  od.children.clear();
}

void CoveringTable::detach_rider(SubscriberId sub) {
  const EntryId e = entry_of_[static_cast<std::size_t>(sub)];
  Entry& entry = entries_[static_cast<std::size_t>(e)];
  const std::uint32_t p = pos_[static_cast<std::size_t>(sub)];
  const SubscriberId moved = entry.subs.back();
  entry.subs[p] = moved;
  pos_[static_cast<std::size_t>(moved)] = p;
  entry.subs.pop_back();
  entry_of_[static_cast<std::size_t>(sub)] = -1;
}

bool CoveringTable::check_invariants() const {
  std::size_t subs = 0;
  std::size_t covered = 0;
  std::size_t live = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.rect.dims() == 0) {  // free slot must be fully cleared
      if (!entry.subs.empty() || !entry.children.empty()) return false;
      continue;
    }
    ++live;
    if (entry.subs.empty()) return false;
    subs += entry.subs.size();
    const EntryId id = static_cast<EntryId>(i);
    if (entry.parent >= 0) {
      covered += entry.subs.size();
      const Entry& par = entries_[static_cast<std::size_t>(entry.parent)];
      if (par.parent >= 0) return false;
      if (!par.rect.contains(entry.rect)) return false;
      if (!entry.children.empty()) return false;
      if (indexed_.count(id) != 0) return false;
    } else if (indexed_.count(id) == 0 || !index_.contains(id) ||
               index_.rect_of(id) != entry.rect) {
      return false;
    }
    for (const SubscriberId s : entry.subs) {
      if (!contains(s) || entry_of_[static_cast<std::size_t>(s)] != id)
        return false;
      if (entry.subs[pos_[static_cast<std::size_t>(s)]] != s) return false;
    }
  }
  if (live != entry_live_ || subs != sub_count_ || covered != covered_subs_)
    return false;
  if (live + free_.size() != entries_.size()) return false;
  if (indexed_.size() != index_.size()) return false;
  // Maximality: no indexed entry's rectangle contains another's.
  for (const EntryId a : indexed_)
    for (const EntryId b : indexed_)
      if (a != b && entries_[static_cast<std::size_t>(b)].rect.contains(
                        entries_[static_cast<std::size_t>(a)].rect))
        return false;
  return true;
}

}  // namespace pubsub
