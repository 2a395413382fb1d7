// Tests for the sharded broker fleet (src/serve): the tentpole invariant
// — at any shard count the fleet digest is bit-identical to a
// single-broker oracle at every sequence number — plus checkpoint/recover
// round trips, degraded-shard stall/heal, and the deterministic event loop
// that drives the serve daemon.
#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/chaos.h"
#include "io/serialize.h"
#include "obs/clock.h"
#include "obs/watchdog.h"
#include "serve/event_loop.h"
#include "sim/scenario.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace pubsub {
namespace {

BrokerOptions SmallBrokerOptions() {
  BrokerOptions opts;
  opts.group.num_groups = 8;
  opts.group.max_cells = 300;
  return opts;
}

FleetOptions SmallFleetOptions(std::size_t shards) {
  FleetOptions opts;
  opts.num_shards = shards;
  opts.broker = SmallBrokerOptions();
  return opts;
}

std::vector<JournalRecord> ParseJournal(const std::string& bytes) {
  std::istringstream is(bytes);
  return ReadJournalLenient(is).journal.records;
}

TEST(FleetPartition, StableHashRoutingCoversEveryShard) {
  std::vector<std::size_t> histogram(5, 0);
  for (SubscriberId id = 0; id < 1000; ++id) {
    EXPECT_EQ(FleetShardOf(id, 1), 0u);
    const std::size_t k = FleetShardOf(id, 5);
    ASSERT_LT(k, 5u);
    EXPECT_EQ(k, FleetShardOf(id, 5));  // stable: a pure function of the id
    ++histogram[k];
  }
  // splitmix64 spreads sequential ids: no shard is starved or dominant.
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_GT(histogram[k], 100u) << "shard " << k << " starved";
    EXPECT_LT(histogram[k], 350u) << "shard " << k << " dominant";
  }
}

TEST(FleetPartition, ChainFoldIsSensitiveToSeqAndMembers) {
  const std::vector<SubscriberId> a{1, 5, 9};
  const std::vector<SubscriberId> b{1, 5, 10};
  const std::uint64_t h = FleetChainFold(0, 3, a);
  EXPECT_NE(h, FleetChainFold(0, 4, a));  // seq folds in
  EXPECT_NE(h, FleetChainFold(0, 3, b));  // membership folds in
  EXPECT_NE(h, FleetChainFold(1, 3, a));  // the chain itself folds in
  EXPECT_EQ(h, FleetChainFold(0, 3, a));  // and it is a pure function
}

// The tentpole invariant: the fleet digest, match chain and every merged
// interested set are bit-identical to the single-broker oracle at every
// sequence number, for every shard count.
void ExpectOracleParity(std::size_t shards) {
  const Scenario sc = MakeStockScenario(60, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 120, 4, 7);

  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                    SmallFleetOptions(shards));
  FleetOracle oracle(sc.workload, *sc.pub, sc.net.graph, SmallBrokerOptions());
  for (const JournalRecord& rec : schedule) {
    if (rec.cmd.type == BrokerCommandType::kPublish) {
      const FleetPublishOutcome out = fleet.apply(rec);
      oracle.apply(rec);
      const auto want = oracle.last_interested();
      ASSERT_TRUE(std::equal(out.interested.begin(), out.interested.end(),
                             want.begin(), want.end()))
          << "merged interested set diverged at seq " << rec.seq;
      ASSERT_TRUE(std::is_sorted(out.interested.begin(), out.interested.end()));
    } else {
      fleet.apply(rec);
      oracle.apply(rec);
    }
    ASSERT_EQ(fleet.seq(), oracle.seq());
    ASSERT_EQ(fleet.match_chain(), oracle.match_chain()) << "seq " << rec.seq;
    ASSERT_EQ(fleet.state_digest(), oracle.state_digest())
        << "seq " << rec.seq;
  }
  EXPECT_EQ(fleet.seq(), schedule.size());
  // Between them the shards hold the oracle's slots (tombstones included)
  // and its live subscribers.
  EXPECT_EQ(fleet.num_subscribers(),
            oracle.broker().workload().num_subscribers());
  EXPECT_EQ(fleet.live_subscribers(), oracle.broker().live_subscribers());
}

TEST(Fleet, OracleParityOneShard) { ExpectOracleParity(1); }
TEST(Fleet, OracleParityTwoShards) { ExpectOracleParity(2); }
TEST(Fleet, OracleParityThreeShards) { ExpectOracleParity(3); }
TEST(Fleet, OracleParityEightShards) { ExpectOracleParity(8); }

// The cold read path serves the same merged set as the fan-out path.
TEST(Fleet, ColdInterestedMatchesPublishOutcome) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(3));
  for (const JournalRecord& rec : schedule) {
    if (rec.cmd.type != BrokerCommandType::kPublish) {
      fleet.apply(rec);
      continue;
    }
    const std::vector<SubscriberId> cold = fleet.interested(rec.cmd.point);
    const FleetPublishOutcome out = fleet.apply(rec);
    ASSERT_TRUE(std::equal(out.interested.begin(), out.interested.end(),
                           cold.begin(), cold.end()));
  }
}

// Clone pattern, fleet level: manifest + shard snapshots + shard journals
// rebuild the fleet, and replaying the fleet journal tail lands it
// bit-identical to the fleet that never restarted.
TEST(FleetRecover, CheckpointRoundTripResumesBitIdentical) {
  const Scenario sc = MakeStockScenario(60, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 140, 4, 7);
  const FleetOptions fopts = SmallFleetOptions(3);

  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, fopts);
  std::ostringstream fleet_disk;
  fleet.set_fleet_journal(&fleet_disk);
  std::vector<std::ostringstream> disks(3);
  for (std::size_t k = 0; k < 3; ++k)
    fleet.set_shard_journal(k, &disks[k]);

  for (std::size_t i = 0; i < 100; ++i) fleet.apply(schedule[i]);
  const FleetManifest cp = fleet.checkpoint();
  ASSERT_EQ(cp.seq, 100u);
  ASSERT_EQ(cp.shard_seqs.size(), 3u);
  // Each shard writes its own snapshot, as `serve` does.
  std::vector<BrokerSnapshot> snaps;
  for (std::size_t k = 0; k < 3; ++k) {
    std::stringstream ss;
    fleet.shard(k).write_snapshot(ss);
    snaps.push_back(ReadBrokerSnapshot(ss));
  }

  // The manifest survives serialization byte-exactly.
  std::ostringstream ms;
  WriteFleetManifest(ms, cp);
  std::istringstream mi(ms.str());
  const FleetManifest manifest = ReadFleetManifest(mi);
  ASSERT_EQ(manifest.seq, cp.seq);
  ASSERT_EQ(manifest.match_chain, cp.match_chain);
  ASSERT_EQ(manifest.shard_seqs, cp.shard_seqs);

  // The live fleet keeps going past the checkpoint...
  for (std::size_t i = 100; i < schedule.size(); ++i) fleet.apply(schedule[i]);

  // ...and the recovered fleet catches up through the fleet journal tail.
  std::vector<std::vector<JournalRecord>> shard_journals;
  shard_journals.reserve(3);
  for (std::size_t k = 0; k < 3; ++k)
    shard_journals.push_back(ParseJournal(disks[k].str()));
  auto resumed = BrokerFleet::Recover(manifest, snaps, shard_journals,
                                      *sc.pub, sc.net.graph, fopts);
  ASSERT_EQ(resumed->seq(), 100u);
  FleetOracle oracle(sc.workload, *sc.pub, sc.net.graph, fopts.broker);
  for (std::size_t i = 0; i < 100; ++i) oracle.apply(schedule[i]);
  ASSERT_EQ(resumed->state_digest(), oracle.state_digest());

  for (const JournalRecord& rec : ParseJournal(fleet_disk.str()))
    if (rec.seq > manifest.seq) resumed->apply(rec);

  EXPECT_EQ(resumed->seq(), fleet.seq());
  EXPECT_EQ(resumed->match_chain(), fleet.match_chain());
  EXPECT_EQ(resumed->state_digest(), fleet.state_digest());
  EXPECT_EQ(resumed->live_subscribers(), fleet.live_subscribers());
}

// A checkpoint taken while stalled would double-apply the pending record
// on replay; the fleet refuses to take one.
TEST(FleetRecover, CheckpointWhileStalledThrows) {
  const Scenario sc = MakeStockScenario(40, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  std::vector<std::ostringstream> disks(2);
  for (std::size_t k = 0; k < 2; ++k)
    fleet.set_shard_journal(k, &disks[k]);

  for (std::size_t i = 0; i < 20; ++i) fleet.apply(schedule[i]);

  FailPoints::Instance().clear();
  FailPoints::Instance().configure("journal.flush=error*12");
  std::size_t i = 20;
  bool stalled = false;
  for (; i < schedule.size() && !stalled; ++i) {
    try {
      fleet.apply(schedule[i]);
    } catch (const FleetDegradedError&) {
      stalled = true;
    }
  }
  FailPoints::Instance().clear();
  ASSERT_TRUE(stalled);
  EXPECT_THROW(fleet.checkpoint(), std::logic_error);
  ASSERT_TRUE(fleet.heal());
  const FleetManifest cp = fleet.checkpoint();  // healthy again
  EXPECT_EQ(cp.seq, fleet.seq());
}

// Recovery derives the id maps from the partition rule and the shards'
// total slot count, so a shard holding other than its share of the slots
// (here: two shards' snapshots swapped) fails, naming the shard.
TEST(FleetRecover, ShardHoldingAnotherShareThrowsNamingIt) {
  const Scenario sc = MakeStockScenario(60, PublicationHotSpots::kOne, 91);
  const FleetOptions fopts = SmallFleetOptions(2);
  const BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, fopts);
  const FleetManifest manifest = fleet.checkpoint();  // seq 0 on both shards
  std::vector<BrokerSnapshot> snaps{fleet.shard(1).snapshot(),
                                    fleet.shard(0).snapshot()};
  ASSERT_NE(snaps[0].workload.num_subscribers(),
            snaps[1].workload.num_subscribers());
  const std::vector<std::vector<JournalRecord>> journals(2);
  try {
    BrokerFleet::Recover(manifest, snaps, journals, *sc.pub, sc.net.graph,
                         fopts);
    ADD_FAILURE() << "swapped shard snapshots recovered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shard 0 holds"), std::string::npos)
        << e.what();
  }
  std::swap(snaps[0], snaps[1]);
  EXPECT_EQ(BrokerFleet::Recover(manifest, snaps, journals, *sc.pub,
                                 sc.net.graph, fopts)
                ->state_digest(),
            fleet.state_digest());
}

// The fleet journal is the log `serve --resume` replays past the manifest:
// a write that leaves its stream failed throws before any shard sees the
// record, so no seq is consumed, fleet or shard.
TEST(FleetJournal, FailedWriteThrowsBeforeAnyShardApplies) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  std::ostringstream bad;
  bad.setstate(std::ios::badbit);
  EXPECT_THROW(fleet.set_fleet_journal(&bad), std::runtime_error);

  std::ostringstream disk;
  fleet.set_fleet_journal(&disk);
  std::size_t i = 0;
  for (const bool publish : {true, false}) {
    while ((schedule[i].cmd.type == BrokerCommandType::kPublish) != publish)
      fleet.apply(schedule[i++]);
    const std::uint64_t digest = fleet.state_digest();
    const std::uint64_t seq0 = fleet.shard(0).seq();
    const std::uint64_t seq1 = fleet.shard(1).seq();
    disk.setstate(std::ios::badbit);
    EXPECT_THROW(fleet.apply(schedule[i]), std::runtime_error)
        << "seq " << schedule[i].seq;
    EXPECT_EQ(fleet.seq(), schedule[i].seq - 1);
    EXPECT_EQ(fleet.shard(0).seq(), seq0);
    EXPECT_EQ(fleet.shard(1).seq(), seq1);
    EXPECT_EQ(fleet.state_digest(), digest);
    disk.clear();
    fleet.apply(schedule[i++]);  // the same record applies to a good stream
  }
}

// A subscribe or publish at a node outside the network fails before the
// fleet journal, as does a fleet whose initial workload holds one.
TEST(FleetJournal, NodeOutsideTheNetworkRejectedBeforeTheJournal) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  Workload bad = sc.workload;
  bad.subscribers[7].node = 99999;
  EXPECT_THROW(BrokerFleet(bad, *sc.pub, sc.net.graph, SmallFleetOptions(2)),
               std::out_of_range);

  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  std::ostringstream disk;
  fleet.set_fleet_journal(&disk);
  const std::string header = disk.str();
  JournalRecord pub = schedule[0];
  ASSERT_EQ(pub.cmd.type, BrokerCommandType::kPublish);
  pub.cmd.node = 99999;
  EXPECT_THROW(fleet.apply(pub), std::out_of_range);
  JournalRecord sub = pub;
  sub.cmd.type = BrokerCommandType::kSubscribe;
  sub.cmd.node = -1;
  sub.cmd.interest = sc.workload.space.domain_rect();
  EXPECT_THROW(fleet.apply(sub), std::out_of_range);
  EXPECT_EQ(fleet.seq(), 0u);
  EXPECT_EQ(fleet.shard(0).seq() + fleet.shard(1).seq(), 0u);
  EXPECT_EQ(disk.str(), header);
}

// A publish off the lattice (a coordinate that is not a finite integer) is
// rejected before the fleet journal, as a shard would reject it: no seq,
// no fleet or shard journal byte.  The cold read path refuses the same
// points; an integer outside the domain is accepted and matches nothing.
TEST(FleetJournal, PublishOffTheLatticeRejectedBeforeTheJournal) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  std::ostringstream disk;
  std::vector<std::ostringstream> shard_disks(2);
  fleet.set_fleet_journal(&disk);
  for (std::size_t k = 0; k < 2; ++k)
    fleet.set_shard_journal(k, &shard_disks[k]);
  const std::string header = disk.str();
  const std::string shard0 = shard_disks[0].str();
  const std::string shard1 = shard_disks[1].str();

  JournalRecord pub = schedule[0];
  ASSERT_EQ(pub.cmd.type, BrokerCommandType::kPublish);
  for (const double bad : {2.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JournalRecord r = pub;
    r.cmd.point[2] = bad;
    EXPECT_THROW(fleet.apply(r), std::invalid_argument) << bad;
    EXPECT_THROW(fleet.interested(r.cmd.point), std::invalid_argument) << bad;
  }
  EXPECT_EQ(fleet.seq(), 0u);
  EXPECT_EQ(fleet.shard(0).seq() + fleet.shard(1).seq(), 0u);
  EXPECT_EQ(disk.str(), header);
  EXPECT_EQ(shard_disks[0].str(), shard0);
  EXPECT_EQ(shard_disks[1].str(), shard1);

  pub.cmd.point[2] = -1.0;
  EXPECT_TRUE(fleet.interested(pub.cmd.point).empty());
  const FleetPublishOutcome out = fleet.apply(pub);
  EXPECT_EQ(out.seq, 1u);
  EXPECT_TRUE(out.interested.empty());
}

// Degraded-shard stall and heal: the record left pending on the degraded
// shard completes through heal() and the stream continues with no digest
// divergence — degraded read-only mode is not terminal for the fleet.
TEST(FleetHeal, StallThenHealMatchesOracle) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 80, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  std::vector<std::ostringstream> disks(2);
  for (std::size_t k = 0; k < 2; ++k)
    fleet.set_shard_journal(k, &disks[k]);

  std::size_t i = 0;
  for (; i < 40; ++i) fleet.apply(schedule[i]);

  FailPoints::Instance().clear();
  FailPoints::Instance().configure("journal.flush=error*12");
  bool stalled = false;
  std::size_t stalled_at = 0;
  for (; i < schedule.size() && !stalled; ++i) {
    try {
      fleet.apply(schedule[i]);
    } catch (const FleetDegradedError&) {
      stalled = true;
      stalled_at = i;  // pending inside the fleet; do not re-apply
    }
  }
  ASSERT_TRUE(stalled);
  EXPECT_TRUE(fleet.stalled());
  const std::uint64_t seq_before = fleet.seq();
  EXPECT_EQ(seq_before, schedule[stalled_at].seq - 1);  // no seq consumed

  // Every further mutation is rejected while stalled; cold reads survive.
  EXPECT_THROW(fleet.apply(schedule[i]), FleetDegradedError);
  for (std::size_t k = stalled_at; k < schedule.size(); ++k)
    if (schedule[k].cmd.type == BrokerCommandType::kPublish) {
      fleet.interested(schedule[k].cmd.point);
      break;
    }

  // Fault cleared: the heal probe completes the pending record.
  FailPoints::Instance().clear();
  ASSERT_TRUE(fleet.heal());
  EXPECT_FALSE(fleet.stalled());
  EXPECT_EQ(fleet.seq(), seq_before + 1);

  for (; i < schedule.size(); ++i) fleet.apply(schedule[i]);

  // The oracle never saw the fault; the digests still agree.
  FleetOracle oracle(sc.workload, *sc.pub, sc.net.graph, SmallBrokerOptions());
  for (const JournalRecord& rec : schedule) oracle.apply(rec);
  EXPECT_EQ(fleet.seq(), oracle.seq());
  EXPECT_EQ(fleet.state_digest(), oracle.state_digest());
}

// The fleet digest is invariant to the worker thread count: the fan-out
// runs on the pool, the merge is a counting sort, and nothing ordered
// leaks from scheduling.
TEST(FleetDeterminism, ThreadCountInvariantDigest) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 60, 4, 7);
  const auto digest_with = [&](std::size_t shards, int threads) {
    ThreadPool::global().set_num_threads(threads);
    BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                      SmallFleetOptions(shards));
    for (const JournalRecord& rec : schedule) fleet.apply(rec);
    return fleet.state_digest();
  };
  const std::uint64_t base = digest_with(1, 1);
  EXPECT_EQ(digest_with(3, 1), base);
  EXPECT_EQ(digest_with(3, 4), base);
  EXPECT_EQ(digest_with(8, 4), base);
  ThreadPool::global().set_num_threads(1);
}

// The serve daemon's deterministic event loop: (due, insertion order)
// execution, periodic re-arming, and one-shots alone keeping it alive.
TEST(FleetEventLoop, OrdersTasksByDueTimeThenScheduleOrder) {
  ManualClock clock;
  EventLoop loop(&clock);
  std::vector<std::string> log;
  const auto mark = [&](const std::string& tag) {
    log.push_back(tag + "@" + std::to_string(static_cast<int>(loop.now_ms())));
  };
  loop.every(5, 5, [&] { mark("p"); });
  loop.at(12, [&] { mark("a"); });
  loop.at(5, [&] { mark("b"); });
  loop.at(5, [&] { mark("c"); });
  loop.run();
  // The periodic was scheduled first, so it leads the 5ms tie; its re-armed
  // firing at 10 rides between the one-shots; run() ends after the last
  // one-shot — the 15ms firing never happens.
  const std::vector<std::string> want{"p@5", "b@5", "c@5", "p@10", "a@12"};
  EXPECT_EQ(log, want);
  EXPECT_EQ(clock.now_ms(), 12.0);
}

TEST(FleetEventLoop, PastDueTasksRunAtCurrentTimeAndStopHalts) {
  ManualClock clock;
  clock.advance_to(50.0);
  EventLoop loop(&clock);
  std::vector<double> at;
  loop.at(10, [&] { at.push_back(loop.now_ms()); });  // already in the past
  loop.at(60, [&] {
    at.push_back(loop.now_ms());
    loop.stop();
  });
  loop.at(70, [&] { at.push_back(loop.now_ms()); });  // never runs
  loop.run();
  const std::vector<double> want{50.0, 60.0};
  EXPECT_EQ(at, want);
  EXPECT_TRUE(loop.stopped());

  EXPECT_THROW(loop.every(5, 0, [] {}), std::invalid_argument);
}

// ---- causal cross-shard tracing --------------------------------------------

// A traced fleet with ManualClock trace time: every span is deterministic
// and collect_spans() reconstructs the full causal tree per publish.
FleetOptions TracedFleetOptions(std::size_t shards, ManualClock* clock) {
  FleetOptions opts = SmallFleetOptions(shards);
  opts.broker.obs.trace_sample = 1;
  opts.broker.obs.trace_capacity = 8192;
  opts.broker.obs.trace_clock = clock;
  opts.trace_clock = clock;
  return opts;
}

// Every sampled publish must reconstruct a complete causal tree: the three
// fleet-coordinator stages plus the full broker pipeline (match, group
// selection, delivery plan, journal flush) on EVERY shard the publish
// fanned out to — the issue's >= 99% completeness acceptance bar, held at
// 100% here.
void ExpectCompleteSpanTrees(std::size_t shards) {
  const Scenario sc = MakeStockScenario(60, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 80, 4, 7);
  ManualClock clock;
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                    TracedFleetOptions(shards, &clock), &clock);
  for (const JournalRecord& rec : schedule) {
    clock.advance(1.0);
    fleet.apply(rec);
  }

  std::map<std::uint64_t, std::vector<TraceSpan>> trees;
  for (const TraceSpan& s : fleet.collect_spans())
    trees[s.trace_id].push_back(s);

  std::size_t publishes = 0;
  std::size_t complete = 0;
  for (const JournalRecord& rec : schedule) {
    if (rec.cmd.type != BrokerCommandType::kPublish) continue;
    ++publishes;
    const std::vector<TraceSpan>& tree = trees[rec.seq];
    std::size_t fleet_stages = 0;
    std::map<PublishStage, std::set<std::int32_t>> shard_stages;
    for (const TraceSpan& s : tree) {
      if (s.shard < 0) {
        // Coordinator spans carry the fleet seq; shard spans carry the
        // shard-local seq (which lags when churn routed elsewhere) — the
        // shared trace_id is what stitches the tree together.
        EXPECT_EQ(s.seq, rec.seq);
        EXPECT_TRUE(s.stage == PublishStage::kFleetFanOut ||
                    s.stage == PublishStage::kFleetMerge ||
                    s.stage == PublishStage::kFleetDeliver);
        ++fleet_stages;
      } else {
        shard_stages[s.stage].insert(s.shard);
      }
    }
    const bool all_shards =
        shard_stages[PublishStage::kMatch].size() == shards &&
        shard_stages[PublishStage::kGroupSelection].size() == shards &&
        shard_stages[PublishStage::kDeliveryPlan].size() == shards &&
        shard_stages[PublishStage::kJournalFlush].size() == shards;
    if (fleet_stages == 3 && all_shards) ++complete;
  }
  ASSERT_GT(publishes, 0u);
  EXPECT_EQ(complete, publishes);
  EXPECT_EQ(fleet.trace_dropped(), 0u);
}

TEST(FleetTrace, SpanTreesCompleteOneShard) { ExpectCompleteSpanTrees(1); }
TEST(FleetTrace, SpanTreesCompleteTwoShards) { ExpectCompleteSpanTrees(2); }
TEST(FleetTrace, SpanTreesCompleteThreeShards) { ExpectCompleteSpanTrees(3); }
TEST(FleetTrace, SpanTreesCompleteEightShards) { ExpectCompleteSpanTrees(8); }

TEST(FleetTrace, TraceJsonDumpCarriesEveryStage) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  ManualClock clock;
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                    TracedFleetOptions(2, &clock), &clock);
  for (const JournalRecord& rec : schedule) fleet.apply(rec);

  std::ostringstream os;
  WriteTraceJson(os, fleet.collect_spans(), fleet.trace_recorded(),
                 fleet.trace_dropped());
  const std::string text = os.str();
  EXPECT_NE(text.find("\"recorded\":"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":0"), std::string::npos);
  for (const char* stage : {"\"fleet_fanout\"", "\"fleet_merge\"",
                            "\"fleet_deliver\"", "\"match\"",
                            "\"group_selection\"", "\"delivery_plan\"",
                            "\"journal_flush\""})
    EXPECT_NE(text.find(stage), std::string::npos) << stage;
  // Coordinator spans carry shard -1; fanned-out spans the shard id.
  EXPECT_NE(text.find("\"shard\":-1"), std::string::npos);
  EXPECT_NE(text.find("\"shard\":1"), std::string::npos);
}

// ---- aggregated exposition --------------------------------------------------

// The fleet scrape is part of the deterministic surface: same commands,
// different --threads, byte-identical text (the name-collision regression —
// per-shard registries merge under distinct shard labels, never alias).
TEST(FleetScrapeDeterminism, ByteIdenticalAcrossThreadCounts) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 60, 4, 7);
  const auto run = [&](int threads) {
    ThreadPool::global().set_num_threads(threads);
    BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                      SmallFleetOptions(3));
    for (const JournalRecord& rec : schedule) fleet.apply(rec);
    std::ostringstream os;
    WriteMetricsText(os, FleetScrape(fleet, /*include_runtime=*/false));
    return os.str();
  };
  const std::string serial = run(1);
  const std::string parallel = run(4);
  ThreadPool::global().set_num_threads(1);
  EXPECT_EQ(serial, parallel);
  // Every shard's series is present under its own label; the fleet's own
  // registry keeps its unlabeled names.
  EXPECT_NE(serial.find("{shard=\"0\"}"), std::string::npos);
  EXPECT_NE(serial.find("{shard=\"2\"}"), std::string::npos);
  EXPECT_NE(serial.find("fleet_commands_total "), std::string::npos);
}

// ---- watchdog drills against a live fleet -----------------------------------

// The fleet.shard.publish=delay fail point slows shard 0 only; the
// watchdog must flag exactly that shard — and stay silent on the healthy
// prefix of the very same run.
TEST(FleetWatchdog, DelayFailPointFlagsSlowShardHealthyRunSilent) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 120, 4, 7);
  ManualClock clock;
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph,
                    TracedFleetOptions(3, &clock), &clock);
  FleetWatchdog dog(WatchdogOptions{}, &fleet.metrics());
  FailPoints& fp = FailPoints::Instance();
  fp.clear();

  const std::size_t half = schedule.size() / 2;
  for (std::size_t i = 0; i < half; ++i) fleet.apply(schedule[i]);
  // Healthy half: frozen trace clock reads every latency as 0, well under
  // the min_p99_ms floor — no alerts, and a clean audit.
  EXPECT_TRUE(
      dog.check(1.0, fleet.shard_publish_histograms(), 0).empty());
  EXPECT_TRUE(dog.audit(1.0, CollectShardAudit(fleet)).empty());

  fp.configure("fleet.shard.publish=delay:50");
  for (std::size_t i = half; i < schedule.size(); ++i) fleet.apply(schedule[i]);
  fp.clear();

  const std::vector<WatchdogAlert> alerts =
      dog.check(2.0, fleet.shard_publish_histograms(), 0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, WatchdogAlertKind::kSlowShard);
  EXPECT_EQ(alerts[0].shard, 0);
  // The drill only skews latency; state stays convergent.
  EXPECT_TRUE(dog.audit(2.0, CollectShardAudit(fleet)).empty());
}

// An out-of-band mutation on one shard (bypassing the sequenced stream)
// must trip the digest/seq auditor.
TEST(FleetWatchdog, AuditCatchesForcedShardDivergence) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 91);
  const auto schedule = BuildChaosSchedule(sc.net, sc.workload, 40, 4, 7);
  BrokerFleet fleet(sc.workload, *sc.pub, sc.net.graph, SmallFleetOptions(2));
  for (const JournalRecord& rec : schedule) fleet.apply(rec);

  FleetWatchdog dog{WatchdogOptions{}};
  EXPECT_TRUE(dog.audit(1.0, CollectShardAudit(fleet)).empty());

  fleet.shard_for_fault_injection(1).subscribe(
      0, fleet.shard(1).workload().space.domain_rect());

  const std::vector<WatchdogAlert> alerts =
      dog.audit(2.0, CollectShardAudit(fleet));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, WatchdogAlertKind::kDigestDivergence);
  EXPECT_EQ(alerts[0].shard, 1);
}

}  // namespace
}  // namespace pubsub
