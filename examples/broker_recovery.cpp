// Broker recovery walkthrough: journal → crash → cold restart.
//
// A primary broker serves a stock workload, journaling every command
// before applying it (the clone pattern: state = snapshot + sequenced
// updates).  Mid-run we "kill" the primary and restart a broker from the
// durable artifacts alone — its latest refresh-boundary snapshot plus the
// journal text — and show that the restarted broker continues from the
// exact same state: a probe publication gets the identical match
// decision, target set and delivery timing on the ghost primary and on
// the restarted broker, and their state digests match.
//
// Run:  ./broker_recovery [--subs=400] [--groups=30] [--events=600]
//                         [--churn-every=8] [--seed=17]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "broker/broker.h"
#include "io/serialize.h"
#include "sim/scenario.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "workload/stock_model.h"
#include "workload/trace.h"

namespace {

using namespace pubsub;

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  flags.require_known(
      {"subs", "groups", "events", "churn-every", "seed", "threads"});
  ConfigureThreadsFromFlags(flags);
  const auto subs = static_cast<int>(flags.get_int("subs", 400));
  const auto groups = static_cast<std::size_t>(flags.get_int("groups", 30));
  const auto num_events = static_cast<std::size_t>(flags.get_int("events", 600));
  const auto churn_every = static_cast<std::size_t>(flags.get_int("churn-every", 8));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));

  const Scenario s = MakeStockScenario(subs, PublicationHotSpots::kOne, seed);
  BrokerOptions opts;
  opts.group.num_groups = groups;
  opts.group.max_cells = 2000;
  opts.refresh.churn_fraction = 0.03;

  ManualClock primary_clock;
  Broker primary(s.workload, *s.pub, s.net.graph, opts, &primary_clock);
  std::ostringstream journal;  // stands in for the on-disk journal file
  primary.set_journal(&journal);
  std::printf("primary up: %zu subscribers, %zu groups\n",
              primary.workload().num_subscribers(), groups);

  // Serve a synthetic trading-day trace with interleaved churn.
  Rng trace_rng(seed + 1);
  const std::vector<TraceEvent> trace =
      GenerateStockTrace(s.net, {}, {}, num_events, trace_rng);
  Rng churn_rng = trace_rng.split(1);
  std::vector<SubscriberId> live(primary.workload().num_subscribers());
  for (std::size_t i = 0; i < live.size(); ++i)
    live[i] = static_cast<SubscriberId>(i);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    primary_clock.advance_to(trace[i].timestamp * 1000.0);
    if (churn_every > 0 && (i + 1) % churn_every == 0 && !live.empty()) {
      Rng sub_rng = churn_rng.split(i);
      const Workload one = GenerateStockSubscriptions(s.net, 1, {}, sub_rng);
      const auto pick = static_cast<std::size_t>(churn_rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      switch (i % 3) {
        case 0:
          live.push_back(primary.subscribe(one.subscribers[0].node,
                                           one.subscribers[0].interest));
          break;
        case 1:
          primary.update(live[pick], one.subscribers[0].interest);
          break;
        default:
          primary.unsubscribe(live[pick]);
          live[pick] = live.back();
          live.pop_back();
      }
    }
    primary.publish(trace[i].pub.origin, trace[i].pub.point);
  }

  const BrokerStats& ps = primary.stats();
  std::printf("\nserved %llu commands (%llu publishes, %llu refreshes); "
              "journal holds %zu bytes\n",
              (unsigned long long)ps.commands_applied,
              (unsigned long long)ps.publishes,
              (unsigned long long)ps.refreshes, journal.str().size());
  std::printf("primary    seq %llu  digest %016llx\n",
              (unsigned long long)primary.seq(),
              (unsigned long long)primary.state_digest());

  // --- the primary "crashes"; restart cold from the durable artifacts ---
  // Its latest refresh-boundary snapshot stands in for the snapshot file.
  std::ostringstream snap_text;
  primary.write_snapshot(snap_text);
  std::istringstream snap_in(snap_text.str());
  const BrokerSnapshot snap = ReadBrokerSnapshot(snap_in);
  std::istringstream journal_in(journal.str());
  const JournalFile jf = ReadJournal(journal_in);
  ManualClock restart_clock;
  const auto restarted = Broker::Recover(snap, jf.records, *s.pub, s.net.graph,
                                         opts, &restart_clock);
  std::printf("\nprimary lost; cold restart from snapshot(seq %llu) + %zu "
              "journal records:\nrestarted  seq %llu  digest %016llx\n",
              (unsigned long long)snap.seq, jf.records.size(),
              (unsigned long long)restarted->seq(),
              (unsigned long long)restarted->state_digest());

  // Probe both with the same publication at the same instant.
  primary_clock.advance(5.0);
  restart_clock.advance_to(primary_clock.now_ms());
  const TraceEvent& probe = trace.front();
  const PublishOutcome a = primary.publish(probe.pub.origin, probe.pub.point);
  const PublishOutcome b =
      restarted->publish(probe.pub.origin, probe.pub.point);
  const bool identical =
      a.group_id == b.group_id &&
      std::ranges::equal(a.unicast_targets, b.unicast_targets) &&
      std::ranges::equal(a.timing.latencies_ms, b.timing.latencies_ms) &&
      primary.state_digest() == restarted->state_digest();
  std::printf("\nprobe publish on the (ghost) primary and the restarted "
              "broker:\n  group %d vs %d, %zu vs %zu unicast targets -> %s\n",
              a.group_id, b.group_id, a.unicast_targets.size(),
              b.unicast_targets.size(),
              identical ? "bit-identical" : "DIVERGED");
  std::printf("\nno subscriber missed an event: every command the primary "
              "applied is in the\njournal, and replaying its tail over the "
              "snapshot rebuilds the same state —\nstate is snapshot + "
              "sequenced updates, nothing more.\n");
  return identical ? 0 : 1;
}
