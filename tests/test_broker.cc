#include "broker/broker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "broker/chaos.h"
#include "io/serialize.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "workload/stock_model.h"

namespace pubsub {
namespace {

BrokerStats WithoutProvenance(BrokerStats s) {
  s.snapshot_bytes = 0;
  s.replayed_records = 0;
  return s;
}

// PublishOutcome's spans have no operator==; materialize for EXPECT_EQ.
template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

struct BrokerFixture {
  BrokerFixture()
      : scenario(MakeStockScenario(250, PublicationHotSpots::kOne, 61)) {
    DeliverySimulator sim(scenario.net.graph, scenario.workload);
    Rng rng(62);
    events = SampleEvents(sim, *scenario.pub, 120, rng);
  }

  BrokerOptions SmallOptions() const {
    BrokerOptions o;
    o.group.num_groups = 12;
    o.group.max_cells = 800;
    o.refresh.churn_fraction = 0.03;  // ~8 churn commands per refresh
    o.refresh.waste_ratio = 0.0;      // waste trigger off: refreshes are
    return o;                         // a pure function of churn volume
  }

  Broker MakeBroker(const BrokerOptions& opts, Clock* clock) const {
    return Broker(scenario.workload, *scenario.pub, scenario.net.graph, opts,
                  clock);
  }

  // Publish every sampled event, interleaving one churn command (cycling
  // subscribe / update / unsubscribe) every `churn_every` events.  All
  // randomness is pre-seeded, so two brokers driven by this function
  // receive identical command streams.
  void Drive(Broker& broker, ManualClock& clock,
             std::size_t churn_every = 5) const {
    Rng churn_rng(63);
    std::vector<SubscriberId> live(broker.workload().num_subscribers());
    for (std::size_t i = 0; i < live.size(); ++i)
      live[i] = static_cast<SubscriberId>(i);
    int churn_kind = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
      clock.advance(7.0);
      if (churn_every > 0 && (i + 1) % churn_every == 0) {
        Rng sub_rng = churn_rng.split(i);
        const Workload one =
            GenerateStockSubscriptions(scenario.net, 1, {}, sub_rng);
        const auto pick = static_cast<std::size_t>(churn_rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        switch (churn_kind++ % 3) {
          case 0:
            live.push_back(broker.subscribe(one.subscribers[0].node,
                                            one.subscribers[0].interest));
            break;
          case 1:
            broker.update(live[pick], one.subscribers[0].interest);
            break;
          default:
            broker.unsubscribe(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        }
      }
      broker.publish(events[i].pub.origin, events[i].pub.point);
    }
  }

  Scenario scenario;
  std::vector<EventSample> events;
};

bool Covers(const PublishOutcome& out, SubscriberId id) {
  if (std::find(out.unicast_targets.begin(), out.unicast_targets.end(), id) !=
      out.unicast_targets.end())
    return true;
  return false;
}

TEST(Broker, SequencingAndCounters) {
  BrokerFixture f;
  ManualClock clock;
  Broker broker = f.MakeBroker(f.SmallOptions(), &clock);
  EXPECT_EQ(broker.seq(), 0u);
  EXPECT_EQ(broker.snapshot().seq, 0u);  // initial build is a checkpoint

  clock.advance(2.0);
  const SubscriberId id =
      broker.subscribe(4, broker.workload().space.domain_rect());
  EXPECT_EQ(id, 250);
  EXPECT_EQ(broker.seq(), 1u);
  EXPECT_EQ(broker.last_command_time_ms(), 2.0);

  clock.advance(2.0);
  broker.update(id, broker.workload().space.domain_rect());
  clock.advance(2.0);
  const PublishOutcome out =
      broker.publish(f.events[0].pub.origin, f.events[0].pub.point);
  EXPECT_EQ(out.seq, 3u);
  EXPECT_EQ(broker.seq(), 3u);

  const BrokerStats& s = broker.stats();
  EXPECT_EQ(s.commands_applied, 3u);
  EXPECT_EQ(s.subscribes, 1u);
  EXPECT_EQ(s.updates, 1u);
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.multicast_events + s.unicast_events, s.publishes);
  EXPECT_GT(s.journal_bytes, 0u);
  EXPECT_EQ(s.snapshot_bytes, 0u);  // fresh broker: no recovery provenance
  EXPECT_EQ(s.replayed_records, 0u);

  // The live interested set is sorted and includes the domain-wide sub.
  const auto inter = broker.interested(f.events[0].pub.point);
  EXPECT_TRUE(std::is_sorted(inter.begin(), inter.end()));
  EXPECT_NE(std::find(inter.begin(), inter.end(), id), inter.end());
  EXPECT_EQ(inter.size(), out.interested);

  clock.advance(2.0);
  broker.unsubscribe(id);
  EXPECT_EQ(broker.stats().unsubscribes, 1u);
  const auto after = broker.interested(f.events[0].pub.point);
  EXPECT_EQ(std::find(after.begin(), after.end(), id), after.end());
}

// The between-refresh window, end to end: a subscriber added after the
// last refresh is invisible to the matcher, but the broker's live index +
// caller-side unicast completion must still deliver every event to it.
TEST(Broker, PreRefreshSubscriberNeverLosesEvents) {
  BrokerFixture f;
  BrokerOptions opts = f.SmallOptions();
  opts.refresh.churn_fraction = 0.0;  // both triggers off: no refresh ever
  ManualClock clock;
  Broker broker = f.MakeBroker(opts, &clock);

  const SubscriberId fresh =
      broker.subscribe(9, broker.workload().space.domain_rect());
  std::size_t multicasts = 0;
  for (const EventSample& e : f.events) {
    clock.advance(5.0);
    const PublishOutcome out = broker.publish(e.pub.origin, e.pub.point);
    EXPECT_FALSE(out.refreshed);
    if (out.group_id >= 0) {
      ++multicasts;
      // The pre-refresh matcher cannot know `fresh`, so coverage must come
      // from the unicast completion of interested \ group.
      EXPECT_TRUE(Covers(out, fresh)) << "event at seq " << out.seq;
    } else {
      EXPECT_TRUE(Covers(out, fresh));
    }
    // One latency per delivered copy: group members + unicast targets.
    EXPECT_EQ(out.timing.latencies_ms.size(),
              out.group_size + out.unicast_targets.size());
  }
  EXPECT_GT(multicasts, 0u);
  EXPECT_EQ(broker.stats().refreshes, 0u);
  EXPECT_EQ(broker.snapshot().seq, 0u);  // no new checkpoint without refresh
}

TEST(Broker, ChurnTriggersRefresh) {
  BrokerFixture f;
  BrokerOptions opts = f.SmallOptions();
  opts.refresh.churn_fraction = 0.02;  // 250 * 0.02 = 5 churned subs
  ManualClock clock;
  Broker broker = f.MakeBroker(opts, &clock);

  const Rect wide = broker.workload().space.domain_rect();
  for (SubscriberId id = 0; id < 5; ++id) {
    EXPECT_EQ(broker.stats().refreshes, 0u);
    clock.advance(1.0);
    broker.update(id, wide);
  }
  EXPECT_EQ(broker.stats().refreshes, 1u);
  EXPECT_EQ(broker.groups().pending_churn(), 0u);
  // The refresh captured a checkpoint at the current seq.
  EXPECT_EQ(broker.snapshot().seq, broker.seq());
  EXPECT_EQ(broker.snapshot().stats, broker.stats());
}

TEST(Broker, WasteTriggersRefresh) {
  BrokerFixture f;
  BrokerOptions opts = f.SmallOptions();
  opts.refresh.churn_fraction = 0.0;   // churn trigger off
  opts.refresh.waste_ratio = 0.05;     // almost any waste qualifies
  opts.refresh.min_messages = 1;
  ManualClock clock;
  Broker broker = f.MakeBroker(opts, &clock);

  // Publish with zero pending churn: waste alone must NOT refresh (there
  // is nothing a re-clustering of the same table would change).
  for (std::size_t i = 0; i < 10; ++i) {
    clock.advance(1.0);
    broker.publish(f.events[i].pub.origin, f.events[i].pub.point);
  }
  EXPECT_EQ(broker.stats().refreshes, 0u);

  // One churned subscription arms the trigger; the next wasteful publish
  // fires it.
  clock.advance(1.0);
  broker.update(0, broker.workload().space.domain_rect());
  std::size_t published = 10;
  while (broker.stats().refreshes == 0 && published < f.events.size()) {
    clock.advance(1.0);
    broker.publish(f.events[published].pub.origin,
                   f.events[published].pub.point);
    ++published;
  }
  EXPECT_EQ(broker.stats().refreshes, 1u);
}

TEST(Broker, IdenticalCommandStreamsProduceIdenticalState) {
  BrokerFixture f;
  ManualClock c1, c2;
  Broker a = f.MakeBroker(f.SmallOptions(), &c1);
  Broker b = f.MakeBroker(f.SmallOptions(), &c2);
  f.Drive(a, c1);
  f.Drive(b, c2);
  EXPECT_EQ(a.seq(), b.seq());
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.stats(), b.stats());
}

// The tentpole acceptance test: stop a broker at arbitrary points, recover
// from its latest snapshot plus the journal tail (both round-tripped
// through their text formats), and require bit-identical state — digests,
// counters, and the outcome of a probe publish.
void ExpectKillAndRecoverBitIdentical(bool closure) {
  BrokerFixture f;
  BrokerOptions opts = f.SmallOptions();
  opts.group.closure = closure;
  ManualClock clock;
  Broker live = f.MakeBroker(opts, &clock);
  std::ostringstream journal_text;
  live.set_journal(&journal_text);

  struct Cut {
    std::uint64_t seq = 0;
    std::uint64_t digest = 0;
    BrokerSnapshot snap;
    std::string journal;
  };
  std::vector<Cut> cuts;
  const std::vector<std::size_t> cut_after = {10, 47, 95};

  // Inline drive so cuts can be captured mid-stream.
  {
    Rng churn_rng(63);
    std::vector<SubscriberId> alive(live.workload().num_subscribers());
    for (std::size_t i = 0; i < alive.size(); ++i)
      alive[i] = static_cast<SubscriberId>(i);
    int churn_kind = 0;
    for (std::size_t i = 0; i < f.events.size(); ++i) {
      clock.advance(7.0);
      if ((i + 1) % 5 == 0) {
        Rng sub_rng = churn_rng.split(i);
        const Workload one =
            GenerateStockSubscriptions(f.scenario.net, 1, {}, sub_rng);
        const auto pick = static_cast<std::size_t>(churn_rng.uniform_int(
            0, static_cast<std::int64_t>(alive.size()) - 1));
        switch (churn_kind++ % 3) {
          case 0:
            alive.push_back(live.subscribe(one.subscribers[0].node,
                                           one.subscribers[0].interest));
            break;
          case 1:
            live.update(alive[pick], one.subscribers[0].interest);
            break;
          default:
            live.unsubscribe(alive[pick]);
            alive[pick] = alive.back();
            alive.pop_back();
        }
      }
      live.publish(f.events[i].pub.origin, f.events[i].pub.point);
      if (std::find(cut_after.begin(), cut_after.end(), i) != cut_after.end())
        cuts.push_back(
            {live.seq(), live.state_digest(), live.snapshot(), journal_text.str()});
    }
  }
  ASSERT_EQ(cuts.size(), 3u);
  EXPECT_GT(live.stats().refreshes, 1u);  // later cuts recover from a
                                          // non-trivial checkpoint
  const std::string full_journal = journal_text.str();
  const std::uint64_t final_digest = live.state_digest();
  const BrokerStats final_stats = live.stats();

  std::unique_ptr<Broker> last_recovered;
  ManualClock recovered_clock;
  for (const Cut& cut : cuts) {
    // Round-trip the snapshot through its serialized form, as a real
    // restart would.
    std::ostringstream snap_text;
    WriteBrokerSnapshot(snap_text, cut.snap);
    std::istringstream snap_in(snap_text.str());
    const BrokerSnapshot snap = ReadBrokerSnapshot(snap_in);
    EXPECT_LE(snap.seq, cut.seq);

    std::istringstream journal_in(cut.journal);
    const JournalFile jf = ReadJournal(journal_in);
    ASSERT_FALSE(jf.records.empty());
    EXPECT_EQ(jf.records.back().seq, cut.seq);

    auto recovered =
        Broker::Recover(snap, jf.records, *f.scenario.pub, f.scenario.net.graph,
                        opts, &recovered_clock);
    EXPECT_EQ(recovered->seq(), cut.seq);
    EXPECT_EQ(recovered->state_digest(), cut.digest) << "cut at " << cut.seq;
    EXPECT_EQ(recovered->stats().replayed_records, cut.seq - snap.seq);
    EXPECT_GT(recovered->stats().snapshot_bytes, 0u);

    // Feeding the rest of the journal brings it to the final state.
    std::istringstream full_in(full_journal);
    for (const JournalRecord& rec : ReadJournal(full_in).records)
      if (rec.seq > cut.seq) recovered->apply(rec);
    EXPECT_EQ(recovered->seq(), live.seq());
    EXPECT_EQ(recovered->state_digest(), final_digest);
    EXPECT_EQ(WithoutProvenance(recovered->stats()),
              WithoutProvenance(final_stats));
    last_recovered = std::move(recovered);
  }

  // Equal digests promise equal futures: probe both brokers with the same
  // publish at the same time and require identical decisions and timing.
  clock.advance(11.0);
  recovered_clock.advance_to(clock.now_ms());
  const PublishOutcome a =
      live.publish(f.events[0].pub.origin, f.events[0].pub.point);
  const PublishOutcome b =
      last_recovered->publish(f.events[0].pub.origin, f.events[0].pub.point);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.group_id, b.group_id);
  EXPECT_EQ(a.group_size, b.group_size);
  EXPECT_EQ(ToVec(a.unicast_targets), ToVec(b.unicast_targets));
  EXPECT_EQ(a.interested, b.interested);
  EXPECT_EQ(a.wasted, b.wasted);
  EXPECT_EQ(a.timing.queue_wait_ms, b.timing.queue_wait_ms);
  EXPECT_EQ(a.timing.service_ms, b.timing.service_ms);
  EXPECT_EQ(ToVec(a.timing.latencies_ms), ToVec(b.timing.latencies_ms));
  EXPECT_EQ(live.state_digest(), last_recovered->state_digest());
}

TEST(Broker, KillAndRecoverIsBitIdentical) {
  for (const bool closure : {false, true}) {
    SCOPED_TRACE(closure ? "closure on" : "closure off");
    ExpectKillAndRecoverBitIdentical(closure);
  }
}

TEST(Broker, Validation) {
  BrokerFixture f;
  ManualClock clock;
  Broker broker = f.MakeBroker(f.SmallOptions(), &clock);

  // Out-of-order apply is rejected.
  JournalRecord rec;
  rec.seq = 5;  // broker is at seq 0
  rec.cmd.type = BrokerCommandType::kPublish;
  rec.cmd.node = f.events[0].pub.origin;
  rec.cmd.point = f.events[0].pub.point;
  EXPECT_THROW(broker.apply(rec), std::runtime_error);

  // Recovery refuses a journal with a gap after the snapshot.
  rec.seq = 2;
  rec.cmd.time_ms = 1.0;
  const std::vector<JournalRecord> gappy{rec};
  EXPECT_THROW(Broker::Recover(broker.snapshot(), gappy, *f.scenario.pub,
                               f.scenario.net.graph, f.SmallOptions()),
               std::runtime_error);

  // A snapshot only restores under the options it was captured with.
  BrokerOptions other = f.SmallOptions();
  other.group.num_groups = 7;
  EXPECT_THROW(Broker::Recover(broker.snapshot(), {}, *f.scenario.pub,
                               f.scenario.net.graph, other),
               std::invalid_argument);
}

// A churn command naming an unknown subscriber id must be rejected BEFORE
// it is journaled or sequenced — on the live path and on replay alike.
// (Regression: pre-validation happened only inside apply_churn, after the
// write-ahead append, so a primary that rejected the command had already
// replicated it and every replica desynced.)
TEST(Broker, UnknownChurnTargetRejectedWithoutDesync) {
  BrokerFixture f;
  ManualClock clock_a, clock_b;
  Broker a = f.MakeBroker(f.SmallOptions(), &clock_a);
  Broker b = f.MakeBroker(f.SmallOptions(), &clock_b);  // rejection-free twin
  std::ostringstream journal;
  a.set_journal(&journal);

  const Rect rect = a.workload().space.domain_rect();
  clock_a.advance(1.0);
  clock_b.advance(1.0);
  a.subscribe(2, rect);
  b.subscribe(2, rect);

  const SubscriberId bogus =
      static_cast<SubscriberId>(a.workload().num_subscribers()) + 7;
  const std::uint64_t seq_before = a.seq();
  const std::string journal_before = journal.str();
  EXPECT_THROW(a.unsubscribe(bogus), std::out_of_range);
  EXPECT_THROW(a.update(bogus, rect), std::out_of_range);
  EXPECT_THROW(a.unsubscribe(-1), std::out_of_range);
  EXPECT_EQ(a.seq(), seq_before) << "rejected command must not consume seq";
  EXPECT_EQ(journal.str(), journal_before)
      << "rejected command must never reach the journal";

  // Replay path: the same records throw the same type, same state.
  JournalRecord rec;
  rec.seq = a.seq() + 1;
  rec.cmd.type = BrokerCommandType::kUnsubscribe;
  rec.cmd.time_ms = a.last_command_time_ms() + 1.0;
  rec.cmd.subscriber = bogus;
  EXPECT_THROW(a.apply(rec), std::out_of_range);
  rec.cmd.type = BrokerCommandType::kUpdate;
  rec.cmd.interest = rect;
  EXPECT_THROW(a.apply(rec), std::out_of_range);
  EXPECT_EQ(a.seq(), seq_before);

  // The attempts are unobservable: the twin that never saw them stays
  // bit-identical through further service.
  clock_a.advance(1.0);
  clock_b.advance(1.0);
  a.publish(f.events[0].pub.origin, f.events[0].pub.point);
  b.publish(f.events[0].pub.origin, f.events[0].pub.point);
  EXPECT_EQ(a.state_digest(), b.state_digest());

  // Recovery refuses a journal carrying such a record instead of replaying
  // it into a divergent state.
  std::vector<JournalRecord> bad(1, rec);
  bad[0].seq = a.snapshot().seq + 1;
  EXPECT_THROW(Broker::Recover(a.snapshot(), bad, *f.scenario.pub,
                               f.scenario.net.graph, f.SmallOptions()),
               std::out_of_range);
}

// A node id outside the network is rejected wherever one enters a broker:
// the constructor, the restore path, and the pre-journal check for a
// subscribe's node and a publish's origin.  A rejected command consumes no
// seq and no journal byte, so no journal carries a record replay cannot
// apply.
TEST(Broker, NodeOutsideTheNetworkRejectedAtEveryEntry) {
  BrokerFixture f;
  const NodeId outside = 99999;
  Workload bad = f.scenario.workload;
  bad.subscribers[3].node = outside;
  EXPECT_THROW(Broker(bad, *f.scenario.pub, f.scenario.net.graph,
                      f.SmallOptions()),
               std::out_of_range);

  ManualClock clock;
  Broker a = f.MakeBroker(f.SmallOptions(), &clock);
  BrokerSnapshot snap = a.snapshot();
  snap.workload.subscribers[3].node = outside;
  EXPECT_THROW(Broker::Recover(snap, {}, *f.scenario.pub,
                               f.scenario.net.graph, f.SmallOptions()),
               std::out_of_range);

  std::ostringstream journal;
  a.set_journal(&journal);
  clock.advance(1.0);
  a.publish(f.events[0].pub.origin, f.events[0].pub.point);
  const std::uint64_t seq_before = a.seq();
  const std::uint64_t bytes_before = a.stats().journal_bytes;
  const std::string journal_before = journal.str();
  const Rect rect = a.workload().space.domain_rect();
  EXPECT_THROW(a.subscribe(outside, rect), std::out_of_range);
  EXPECT_THROW(a.subscribe(-1, rect), std::out_of_range);
  EXPECT_THROW(a.publish(outside, f.events[0].pub.point), std::out_of_range);
  JournalRecord rec;
  rec.seq = a.seq() + 1;
  rec.cmd.type = BrokerCommandType::kPublish;
  rec.cmd.time_ms = a.last_command_time_ms() + 1.0;
  rec.cmd.node = outside;
  rec.cmd.point = f.events[0].pub.point;
  EXPECT_THROW(a.apply(rec), std::out_of_range);
  EXPECT_EQ(a.seq(), seq_before);
  EXPECT_EQ(a.stats().journal_bytes, bytes_before);
  EXPECT_EQ(journal.str(), journal_before);
}

// A snapshot holds the subscription table, not the index: a recovered
// broker rebuilds its lattice columns from the table, while the live broker
// reached the same table through churn.  No output may differ: under a
// churn-heavy tail applied to both, the digest, the interested sets at
// fixed probe points and the live-subscriber gauge agree after every
// command.
TEST(Broker, SnapshotRoundTripRebuildsTheLatticeIndex) {
  BrokerFixture f;
  const BrokerOptions opts = f.SmallOptions();
  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(f.scenario.net, f.scenario.workload, 120, 2, 7);
  ManualClock clock;
  Broker live = f.MakeBroker(opts, &clock);
  const std::size_t half = schedule.size() / 2;
  for (std::size_t i = 0; i < half; ++i) live.apply(schedule[i]);

  std::ostringstream os;
  WriteBrokerSnapshot(os, live.snapshot());
  std::istringstream is(os.str());
  const BrokerSnapshot back = ReadBrokerSnapshot(is);
  ASSERT_GT(back.seq, 0u);  // a refresh boundary reached through churn
  const auto restored =
      Broker::Recover(back, std::span(schedule).first(half), *f.scenario.pub,
                      f.scenario.net.graph, opts);
  ASSERT_EQ(restored->seq(), live.seq());

  const auto gauge = [](const Broker& b, const char* name) {
    return b.metrics().gauge(name, "")->value();
  };
  const auto expect_same = [&] {
    const std::uint64_t seq = live.seq();
    EXPECT_EQ(restored->state_digest(), live.state_digest()) << "seq " << seq;
    EXPECT_EQ(gauge(*restored, "broker_live_subscribers"),
              gauge(live, "broker_live_subscribers"))
        << "seq " << seq;
    EXPECT_EQ(gauge(live, "broker_live_subscribers"),
              static_cast<double>(live.live_subscribers()))
        << "seq " << seq;
    for (std::size_t k = 0; k < 16; ++k) {
      const Point& probe = f.events[k].pub.point;
      EXPECT_EQ(restored->interested(probe), live.interested(probe))
          << "probe " << k << " at seq " << seq;
    }
  };
  expect_same();
  for (std::size_t i = half; i < schedule.size(); ++i) {
    live.apply(schedule[i]);
    restored->apply(schedule[i]);
    expect_same();
  }
  EXPECT_GT(gauge(live, "broker_live_subscribers"), 0.0);
}

// The index answers only lattice points, so a publish whose coordinate is
// not a finite integer is rejected before the journal, on the live path
// and on apply() alike: it consumes no seq and no journal byte (the journal
// reader refuses a non-finite coordinate, so a journaled one would stop
// recovery).  The read path refuses the same points.  An integer outside
// the domain is a lattice point: accepted, it matches nothing.
TEST(Broker, PublishOffTheLatticeRejectedBeforeTheJournal) {
  BrokerFixture f;
  ManualClock clock;
  Broker a = f.MakeBroker(f.SmallOptions(), &clock);
  std::ostringstream journal;
  a.set_journal(&journal);
  clock.advance(1.0);
  a.publish(f.events[0].pub.origin, f.events[0].pub.point);
  const std::uint64_t seq_before = a.seq();
  const std::uint64_t bytes_before = a.stats().journal_bytes;
  const std::string journal_before = journal.str();

  const NodeId origin = f.events[1].pub.origin;
  for (const double bad : {2.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Point p = f.events[1].pub.point;
    p[1] = bad;
    clock.advance(1.0);
    EXPECT_THROW(a.publish(origin, p), std::invalid_argument) << bad;
    JournalRecord rec;
    rec.seq = a.seq() + 1;
    rec.cmd.type = BrokerCommandType::kPublish;
    rec.cmd.time_ms = clock.now_ms();
    rec.cmd.node = origin;
    rec.cmd.point = p;
    EXPECT_THROW(a.apply(rec), std::invalid_argument) << bad;
    EXPECT_THROW(a.interested(p), std::invalid_argument) << bad;
  }
  EXPECT_EQ(a.seq(), seq_before);
  EXPECT_EQ(a.stats().journal_bytes, bytes_before);
  EXPECT_EQ(journal.str(), journal_before);

  Point outside = f.events[1].pub.point;
  outside[1] = static_cast<double>(a.workload().space.dim(1).domain_size);
  EXPECT_TRUE(a.interested(outside).empty());
  clock.advance(1.0);
  const PublishOutcome out = a.publish(origin, outside);
  EXPECT_EQ(out.seq, seq_before + 1);
  EXPECT_EQ(out.interested, 0u);
  EXPECT_TRUE(out.interested_set.empty());
}

// --- fault injection & graceful degradation -------------------------------

// Clears the process-global fail-point registry on both sides of each test.
class BrokerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().clear(); }
  void TearDown() override { FailPoints::Instance().clear(); }
};

TEST_F(BrokerFaultTest, ShortJournalWritesRetryToCompletion) {
  BrokerFixture f;
  const BrokerOptions opts = f.SmallOptions();
  const auto schedule =
      BuildChaosSchedule(f.scenario.net, f.scenario.workload, 10, 5, 7);

  ManualClock clock_a, clock_b;
  Broker a = f.MakeBroker(opts, &clock_a);
  Broker b = f.MakeBroker(opts, &clock_b);
  std::ostringstream ja, jb;
  a.set_journal(&ja);
  b.set_journal(&jb);

  // Every append lands only 3 bytes per write call: the broker must loop
  // the remainder without counting failures or losing bytes.
  FailPoints::Instance().configure("journal.write=error:3");
  for (const JournalRecord& rec : schedule) a.apply(rec);
  FailPoints::Instance().clear();
  for (const JournalRecord& rec : schedule) b.apply(rec);

  EXPECT_EQ(ja.str(), jb.str());  // byte-identical journal despite faults
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(a.stats().journal_flush_failures, 0u);
  EXPECT_FALSE(a.degraded());
}

TEST_F(BrokerFaultTest, PostJournalCrashLeavesTheRecordDurable) {
  BrokerFixture f;
  const BrokerOptions opts = f.SmallOptions();
  const auto schedule =
      BuildChaosSchedule(f.scenario.net, f.scenario.workload, 6, 3, 7);

  ManualClock clock;
  Broker broker = f.MakeBroker(opts, &clock);
  std::ostringstream journal;
  broker.set_journal(&journal);
  const BrokerSnapshot base = broker.snapshot();

  broker.apply(schedule[0]);
  FailPoints::Instance().configure("broker.publish.post_journal=crash*1");
  EXPECT_THROW(broker.apply(schedule[1]), InjectedCrash);
  FailPoints::Instance().clear();
  EXPECT_EQ(broker.seq(), 1u);  // the mutation never happened in memory...

  // ...but the WAL record is durable, so recovery replays it.
  std::istringstream is(journal.str());
  const JournalFile jf = ReadJournal(is);
  ASSERT_EQ(jf.records.size(), 2u);
  const auto recovered =
      Broker::Recover(base, jf.records, *f.scenario.pub, f.scenario.net.graph,
                      opts);
  EXPECT_EQ(recovered->seq(), 2u);
}

TEST_F(BrokerFaultTest, PersistentFlushFailureBacksOffThenDegrades) {
  BrokerFixture f;
  const BrokerOptions opts = f.SmallOptions();
  const auto schedule =
      BuildChaosSchedule(f.scenario.net, f.scenario.workload, 10, 5, 7);

  ManualClock clock;
  Broker broker = f.MakeBroker(opts, &clock);
  std::ostringstream journal;
  broker.set_journal(&journal);
  broker.apply(schedule[0]);

  const double before_ms = clock.now_ms();
  FailPoints::Instance().configure("journal.flush=error");
  EXPECT_THROW(broker.apply(schedule[1]), BrokerDegradedError);

  // Exponential backoff, deterministic through the manual clock:
  // 1 + 2 + 4 + 8 = 15ms across the kJournalFlushRetries = 4 retries.
  EXPECT_DOUBLE_EQ(clock.now_ms() - before_ms, 15.0);
  EXPECT_TRUE(broker.degraded());
  const BrokerStats& s = broker.stats();
  EXPECT_EQ(s.journal_flush_retries, 4u);
  EXPECT_EQ(s.journal_flush_failures, 5u);  // initial attempt + 4 retries
  EXPECT_EQ(s.degraded_entries, 1u);
  EXPECT_EQ(broker.seq(), 1u);  // the faulted command did not take effect
}

TEST_F(BrokerFaultTest, DegradedModeServesReadsRejectsWritesAndResumes) {
  BrokerFixture f;
  const BrokerOptions opts = f.SmallOptions();
  const auto schedule =
      BuildChaosSchedule(f.scenario.net, f.scenario.workload, 15, 5, 7);

  ManualClock clock_a, clock_b;
  Broker a = f.MakeBroker(opts, &clock_a);
  Broker b = f.MakeBroker(opts, &clock_b);  // clean twin, no journal faults
  std::ostringstream ja, jb;
  a.set_journal(&ja);
  b.set_journal(&jb);

  const std::size_t half = schedule.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    a.apply(schedule[i]);
    b.apply(schedule[i]);
  }

  FailPoints::Instance().configure("journal.flush=error");
  EXPECT_THROW(a.apply(schedule[half]), BrokerDegradedError);
  EXPECT_TRUE(a.degraded());

  // Reads keep serving while degraded.
  const Point& probe = f.events[0].pub.point;
  EXPECT_EQ(a.interested(probe), b.interested(probe));
  EXPECT_NO_THROW(a.stats());

  // Mutations are rejected and counted.
  EXPECT_THROW(a.apply(schedule[half]), BrokerDegradedError);
  EXPECT_THROW(a.subscribe(3, a.workload().space.domain_rect()),
               BrokerDegradedError);
  EXPECT_EQ(a.stats().mutations_rejected, 2u);

  // While the fault persists, clear_degraded() reports failure and stays
  // degraded.
  EXPECT_FALSE(a.clear_degraded());
  EXPECT_TRUE(a.degraded());

  // Once the "disk" heals, clearing finishes the interrupted append and
  // applies the pending command — a late success, not a lost update.
  FailPoints::Instance().clear();
  EXPECT_TRUE(a.clear_degraded());
  EXPECT_FALSE(a.degraded());
  b.apply(schedule[half]);
  EXPECT_EQ(a.seq(), b.seq());

  for (std::size_t i = half + 1; i < schedule.size(); ++i) {
    a.apply(schedule[i]);
    b.apply(schedule[i]);
  }
  EXPECT_EQ(a.state_digest(), b.state_digest());
  EXPECT_EQ(ja.str(), jb.str());  // journal bytes identical too
  EXPECT_EQ(a.stats().degraded_entries, 1u);
}

}  // namespace
}  // namespace pubsub
