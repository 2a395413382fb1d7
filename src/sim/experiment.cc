#include "sim/experiment.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>

#include "util/thread_pool.h"

namespace pubsub {

namespace {
// Minimum events per chunk for the batch-match fan-out.  A match is cheap
// (one stab + a few comparisons), so without a floor an 8-lane split of a
// small batch pays more in wakeups than it saves in work.
constexpr std::size_t kMatchGrain = 256;
// Events per block claimed by a lane in the cost fan-out.  One event
// costs a pruned-SPT walk plus an MST over the group's nodes — hundreds of
// matches — so small blocks already amortize the claim.
constexpr std::size_t kCostBlock = 16;
}  // namespace

std::vector<EventSample> SampleEvents(const DeliverySimulator& sim,
                                      const PublicationModel& model,
                                      std::size_t count, Rng& rng) {
  // Sampling consumes the Rng serially (the stream must not depend on the
  // thread count); the interested-set stabbing queries are pure per-event
  // lookups and fan out across the pool.
  std::vector<EventSample> events(count);
  for (std::size_t i = 0; i < count; ++i) events[i].pub = model.sample(rng);
  ParallelFor(
      count,
      [&](std::size_t i) { events[i].interested = sim.interested(events[i].pub.point); },
      /*min_parallel=*/16, /*grain=*/64);
  return events;
}

BaselineCosts EvaluateBaselines(DeliverySimulator& sim,
                                std::span<const EventSample> events,
                                bool with_applevel_ideal) {
  BaselineCosts base;
  base.events = events.size();
  for (const EventSample& e : events) {
    base.unicast += sim.unicast_cost(e.pub.origin, e.interested);
    base.broadcast += sim.broadcast_cost(e.pub.origin);
    base.ideal += sim.ideal_cost(e.pub.origin, e.interested);
    if (with_applevel_ideal)
      base.ideal_app += sim.ideal_cost_applevel(e.pub.origin, e.interested);
  }
  return base;
}

double ImprovementPercent(double cost, const BaselineCosts& base) {
  const double denom = base.unicast - base.ideal;
  if (denom <= 0.0) return 0.0;
  return (base.unicast - cost) / denom * 100.0;
}

ClusteredCosts EvaluateMatcher(DeliverySimulator& sim,
                               std::span<const EventSample> events,
                               const MatchFn& match) {
  // Phase 1 (parallel, chunked): per-event match decisions.  A decision's
  // unicast span may alias the matching thread's scratch, which the same
  // thread's *next* match clobbers — so each chunk copies its unicast ids
  // into a chunk-local pool before moving on.  Slot writes to `metas` are a
  // pure per-index map and the chunk pools are append-only within a chunk,
  // so the per-event content is identical for any thread count or grain.
  // Phase 2 (parallel): per-event costs into per-index slots.  The
  // simulator's caches are warmed serially first — every origin's SPT, and
  // the distance matrix only if some decision multicasts, as the lazy
  // serial path would — so the cost calls only read the simulator.  Lanes
  // claim blocks of events from a shared cursor rather than owning a fixed
  // chunk, so a lane the OS deschedules stalls the join by one block, not
  // by its whole share.  Which lane computes an event cannot change its
  // value (each lane owns its scratch), so the slots are schedule-free.
  // Phase 3 (serial, event order): summing the slots in event order adds
  // the same doubles in the same order as a serial loop, so the totals are
  // bit-identical for any thread count.
  struct Meta {
    int group_id = -1;
    std::span<const SubscriberId> group_members;  // stable: points into matcher
    const std::vector<SubscriberId>* pool = nullptr;
    std::size_t uni_off = 0;
    std::size_t uni_len = 0;
  };
  std::vector<Meta> metas(events.size());
  std::deque<std::vector<SubscriberId>> pools;  // deque: stable element addresses
  std::mutex pools_mu;
  ParallelForChunks(
      events.size(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<SubscriberId>* pool;
        {
          std::lock_guard<std::mutex> lock(pools_mu);
          pool = &pools.emplace_back();
        }
        pool->reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          const MatchDecision d =
              match(events[i].pub.point, events[i].interested);
          Meta& m = metas[i];
          m.group_id = d.group_id;
          m.group_members = d.group_members;
          m.pool = pool;
          m.uni_off = pool->size();
          pool->insert(pool->end(), d.unicast_targets.begin(),
                       d.unicast_targets.end());
          m.uni_len = pool->size() - m.uni_off;
        }
      },
      /*min_parallel=*/16, kMatchGrain);

  std::vector<NodeId> origins;
  origins.reserve(events.size());
  bool any_multicast = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    origins.push_back(events[i].pub.origin);
    any_multicast = any_multicast || metas[i].group_id >= 0;
  }
  sim.warm_clustered_costs(origins, any_multicast);

  struct EventCost {
    double network = 0.0;
    double applevel = 0.0;
    std::size_t wasted = 0;
  };
  std::vector<EventCost> costs(events.size());
  const std::size_t lanes =
      std::min(static_cast<std::size_t>(ThreadPool::global().num_threads()),
               (events.size() + kCostBlock - 1) / kCostBlock);
  std::atomic<std::size_t> cursor{0};
  ParallelFor(lanes, [&](std::size_t) {
    DeliverySimulator::CostScratch scratch(sim.network());
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(kCostBlock, std::memory_order_relaxed);
      if (begin >= events.size()) break;
      const std::size_t end = std::min(begin + kCostBlock, events.size());
      for (std::size_t i = begin; i < end; ++i) {
        const EventSample& e = events[i];
        const Meta& m = metas[i];
        MatchDecision d;
        d.group_id = m.group_id;
        d.group_members = m.group_members;
        d.unicast_targets = std::span<const SubscriberId>(*m.pool).subspan(
            m.uni_off, m.uni_len);
        EventCost& c = costs[i];
        c.network = sim.clustered_cost_network(e.pub.origin, d, scratch);
        c.applevel = sim.clustered_cost_applevel(e.pub.origin, d, scratch);
        c.wasted = DeliverySimulator::wasted_deliveries(d, e.interested);
      }
    }
  });

  ClusteredCosts out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.network += costs[i].network;
    out.applevel += costs[i].applevel;
    if (metas[i].group_id >= 0) {
      ++out.multicast_events;
      out.wasted_deliveries += costs[i].wasted;
    } else {
      ++out.unicast_events;
    }
  }
  return out;
}

}  // namespace pubsub
