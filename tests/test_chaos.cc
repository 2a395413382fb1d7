// Tests for the chaos driver (broker/chaos): schedule determinism and the
// headline durability claim — hundreds of scripted kill/recover cycles
// across every named fail-point site end bit-identical to an un-faulted
// reference run.
#include "broker/chaos.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>

#include "broker/types.h"
#include "io/serialize.h"
#include "sim/scenario.h"
#include "util/failpoint.h"

namespace pubsub {
namespace {

std::string Rendered(const std::vector<JournalRecord>& schedule,
                     std::size_t dims) {
  std::ostringstream os;
  for (const JournalRecord& rec : schedule) WriteJournalRecord(os, rec, dims);
  return os.str();
}

TEST(ChaosSchedule, DeterministicSequencedAndShaped) {
  const Scenario sc = MakeStockScenario(40, PublicationHotSpots::kOne, 91);
  const auto a = BuildChaosSchedule(sc.net, sc.workload, 60, 5, 7);
  const auto b = BuildChaosSchedule(sc.net, sc.workload, 60, 5, 7);
  const auto dims = sc.workload.space.dims();
  EXPECT_EQ(Rendered(a, dims), Rendered(b, dims));  // same seed, same bytes

  // 60 publishes plus one churn command every 5 events.
  ASSERT_EQ(a.size(), 60u + 60u / 5u);
  std::size_t publishes = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, i + 1);  // schedule[broker->seq()] is always next
    if (i > 0) EXPECT_GE(a[i].cmd.time_ms, a[i - 1].cmd.time_ms);
    if (a[i].cmd.type == BrokerCommandType::kPublish) ++publishes;
  }
  EXPECT_EQ(publishes, 60u);

  // A different seed is a different stream.
  const auto c = BuildChaosSchedule(sc.net, sc.workload, 60, 5, 8);
  EXPECT_NE(Rendered(a, dims), Rendered(c, dims));
}

TEST(ChaosSchedule, NoChurnMeansPurePublishes) {
  const Scenario sc = MakeStockScenario(30, PublicationHotSpots::kOne, 91);
  const auto a = BuildChaosSchedule(sc.net, sc.workload, 25, 0, 7);
  ASSERT_EQ(a.size(), 25u);
  for (const JournalRecord& rec : a)
    EXPECT_EQ(rec.cmd.type, BrokerCommandType::kPublish);
}

// The acceptance bar of the fault-injection layer: >= 200 kill/recover
// cycles, faults at every named site, and the survivor bit-identical to a
// broker that never saw a fault.
TEST(Chaos, TwoHundredKillRecoverCyclesAreBitIdentical) {
  const Scenario sc = MakeStockScenario(50, PublicationHotSpots::kOne, 61);
  ChaosOptions opts;
  opts.num_events = 400;
  opts.churn_every = 5;
  opts.seed = 7;
  opts.chaos_seed = 1;
  opts.cycles = 200;
  opts.snapshot_every = 50;
  opts.broker.group.num_groups = 8;
  opts.broker.group.max_cells = 300;

  const ChaosReport r = RunChaos(sc.net, sc.workload, *sc.pub, opts);

  EXPECT_EQ(r.commands, 480u);
  EXPECT_GE(r.cycles, 200u);
  EXPECT_GT(r.recoveries, 0u);
  EXPECT_GE(r.torn_tails, 1u);        // torn-tail drop exercised
  EXPECT_GE(r.degraded_entries, 1u);  // degraded mode exercised
  EXPECT_GT(r.digest_checks, 0u);
  EXPECT_EQ(r.digest_mismatches, 0u);
  EXPECT_EQ(r.final_seq, 480u);
  EXPECT_TRUE(r.digests_match);
  EXPECT_EQ(r.final_digest, r.reference_digest);

  // Every named kill site actually killed the process at least once under
  // this seed (the driver forces snapshots into snapshot.* fault windows).
  for (const char* site :
       {"journal.write", "journal.flush", "broker.publish.pre_journal",
        "broker.publish.post_journal", "snapshot.write", "snapshot.flush",
        "recover.replay"}) {
    const auto it = r.kills_by_site.find(site);
    ASSERT_NE(it, r.kills_by_site.end()) << site << " never fired";
    EXPECT_GE(it->second, 1u) << site;
  }

  // The harness must disarm the global registry behind itself.
  EXPECT_FALSE(FailPoints::Instance().active());

  const std::string report = FormatChaosReport(r);
  EXPECT_NE(report.find("bit-identical"), std::string::npos);
  EXPECT_NE(report.find("torn tails"), std::string::npos);
}

// Zero cycles degenerates to a clean replay: the whole schedule applies
// with no kills, and the digest still matches the reference.
TEST(Chaos, ZeroCyclesIsACleanReplay) {
  const Scenario sc = MakeStockScenario(30, PublicationHotSpots::kOne, 61);
  ChaosOptions opts;
  opts.num_events = 40;
  opts.churn_every = 4;
  opts.cycles = 0;
  opts.snapshot_every = 10;
  opts.broker.group.num_groups = 6;
  opts.broker.group.max_cells = 200;

  const ChaosReport r = RunChaos(sc.net, sc.workload, *sc.pub, opts);
  EXPECT_EQ(r.cycles, 0u);
  EXPECT_EQ(r.torn_tails, 0u);
  EXPECT_TRUE(r.digests_match);
}

}  // namespace
}  // namespace pubsub
