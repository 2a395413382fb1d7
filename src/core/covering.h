// Subscription covering/aggregation: N subscribers -> K <= N index entries.
//
// The matcher's cost and footprint should grow with *distinct interest*,
// not with the subscriber population (arXiv 1811.07088): a workload where a
// million subscribers share a few thousand interest rectangles needs a few
// thousand index entries, and a subscription whose rectangle lies inside an
// already-indexed one needs none at all.  The CoveringTable owns the
// SlabIndex the broker stabs, and decides alone what goes into it:
//
//   * Equal rectangles dedup onto one entry with a subscriber refcount —
//     churn on a known rectangle never touches the index.
//   * A new entry whose rectangle is contained in an indexed entry's
//     rectangle becomes a *covered child* of that entry (the coverer with
//     the smallest entry id, a canonical choice independent of lookup
//     order).  Children are never put in the index.
//   * Otherwise the entry is indexed, and any indexed entries its rectangle
//     strictly contains are demoted to children.  The indexed set is
//     therefore always exactly the maximal rectangles under containment —
//     a deterministic function of the resident rectangle *set*, which is
//     what makes indexed_count()/covered_subscriber_count() safe to expose
//     as deterministic metrics.
//   * When an indexed entry's last subscriber leaves, its children re-home
//     in ascending entry-id order: each attaches to a remaining coverer or
//     is promoted (with demotion of any siblings it contains).
//
// The index serves the table's own lookups too.  Every coverer of a
// rectangle contains its upper corner (intervals are (lo, hi]), and a stab
// emits ascending ids, so the first hit at that corner whose rectangle
// contains the new one is the min-id coverer.  Demotion candidates come
// from an ascending scan of the indexed set, which holds only the maximal
// rectangles.
//
// Matching stays exact because of the two-level invariant — every covered
// child's rectangle is contained in its indexed parent's rectangle.  A
// point stab() over indexed entries therefore reaches every entry that
// could contain the point; expand() turns one indexed hit into subscribers
// by taking the entry's own riders plus the riders of each child whose
// rectangle point-tests true.  Emission order is canonicalized downstream
// (the broker's counting-sort scatter), so the table's history-dependent
// internals never reach an observable output.
//
// Determinism: every tie is broken canonically (min-id coverer, ascending
// re-home, LIFO id reuse, swap-pop rider removal), so the full table state
// is a pure function of the churn-command stream, and two brokers fed the
// same stream hold the same table.  Entry ids, rider order and the index's
// endpoint layout are never observable as matches: a broker recovered from
// a snapshot rebuilds its table from the subscription table, with a
// different layout but the same rectangle set, hence the same indexed set
// and matches (DESIGN.md §10).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "geometry/rect.h"
#include "index/slab_index.h"
#include "workload/types.h"

namespace pubsub {

// Lexicographic rectangle order for the dedup map (dims, then lo/hi pairs).
struct RectLess {
  bool operator()(const Rect& a, const Rect& b) const;
};

class CoveringTable {
 public:
  using EntryId = int;

  // --- churn ------------------------------------------------------------
  // Register `sub` with interest `rect` (non-empty, finite — the broker
  // clips to the event-space domain first).  Throws std::invalid_argument
  // on a duplicate subscriber, an empty rectangle, or mixed
  // dimensionality.
  void subscribe(SubscriberId sub, const Rect& rect);
  // Remove `sub`.  Throws std::out_of_range if unknown (mirrors
  // GroupManager's churn contract).
  void unsubscribe(SubscriberId sub);
  // Replace `sub`'s interest.  No-op when the rectangle is unchanged;
  // otherwise equivalent to unsubscribe + subscribe.
  void update(SubscriberId sub, const Rect& rect);
  // Rebuild the index from the indexed set.  Churn leaves the endpoints of
  // erased and demoted rectangles resident as dead ones; a bulk build has
  // none.  Matches and every count below are unchanged.
  void compact_index();

  bool contains(SubscriberId sub) const {
    return sub >= 0 && static_cast<std::size_t>(sub) < entry_of_.size() &&
           entry_of_[static_cast<std::size_t>(sub)] >= 0;
  }

  // --- matching ---------------------------------------------------------
  // Ids of the indexed entries whose rectangle contains `p`, ascending, in
  // `out` (cleared on entry); `tmp` is the caller's reusable word buffer
  // (SlabIndex::stab).
  void stab(const Point& p, std::vector<int>& out,
            std::vector<std::uint64_t>& tmp) const {
    index_.stab(p, out, tmp);
  }
  // Expand an indexed-entry stab hit at point `p` into subscriber ids
  // (appended, unsorted): the entry's riders plus the riders of every
  // covered child whose rectangle contains `p`.
  void expand(EntryId e, const Point& p, std::vector<SubscriberId>& out) const;

  // --- stats ------------------------------------------------------------
  std::size_t subscriber_count() const { return sub_count_; }
  // Distinct resident rectangles (K).
  std::size_t entry_count() const { return entry_live_; }
  // Entries resident in the index (maximal rectangles).
  std::size_t indexed_count() const { return indexed_.size(); }
  // Subscribers riding a covered (non-indexed) entry.
  std::size_t covered_subscriber_count() const { return covered_subs_; }
  // The index over indexed entries, for its maintenance gauges.  Its
  // endpoint layout depends on churn history, unlike the counts above.
  const SlabIndex& index() const { return index_; }

  // Structural invariants (two-level topology, containment, refcount
  // consistency, maximality of the indexed set); used by tests.
  bool check_invariants() const;

 private:
  struct Entry {
    Rect rect;  // empty = free slot
    EntryId parent = -1;
    std::vector<SubscriberId> subs;
    std::vector<EntryId> children;
  };

  EntryId alloc_entry(const Rect& rect);
  void free_entry(EntryId e);
  // Smallest-id indexed entry whose rectangle contains `rect`, or -1.
  EntryId min_coverer(const Rect& rect);
  // Attach `e` under its min-id coverer, or index it if it has none.
  void place_entry(EntryId e);
  // Put `e` in the index and demote any indexed entries its rectangle now
  // covers.
  void make_indexed(EntryId e);
  // Move indexed `o` under indexed `parent` (rect(parent) contains
  // rect(o)); o's children re-home to `parent`.
  void demote(EntryId o, EntryId parent);
  void detach_rider(SubscriberId sub);

  std::vector<Entry> entries_;
  std::vector<EntryId> free_;  // LIFO id reuse
  // rect -> entry dedup; ordered map keeps lookups deterministic without a
  // float-hashing pitfall (-0.0 vs 0.0).
  std::map<Rect, EntryId, RectLess> by_rect_;
  std::vector<EntryId> entry_of_;     // per subscriber, -1 = absent
  std::vector<std::uint32_t> pos_;    // position in its entry's subs list
  std::set<EntryId> indexed_;         // ascending iteration for demote scan
  SlabIndex index_;                   // indexed entries' rects, by entry id
  Point corner_;                      // scratch: min_coverer's stab point
  std::vector<int> hits_;             // scratch: min_coverer's stab hits
  std::vector<std::uint64_t> words_;  // scratch: min_coverer's stab words
  std::size_t sub_count_ = 0;
  std::size_t entry_live_ = 0;
  std::size_t covered_subs_ = 0;
  std::size_t ndims_ = 0;  // locked at first resident entry
};

}  // namespace pubsub
