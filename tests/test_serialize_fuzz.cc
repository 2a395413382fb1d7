// Randomized round-trip and malformed-input tests for the io layer:
// arbitrary generated artifacts must survive write→read unchanged, and
// truncating or corrupting any prefix of a valid file must raise a clean
// parse error (never crash or mis-parse).  The broker's checksummed
// artifacts go further: every truncation and every single-character
// change is detected.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "broker/broker.h"
#include "broker/chaos.h"
#include "io/serialize.h"
#include "sim/scenario.h"

namespace pubsub {
namespace {

class WorkloadRoundTripFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadRoundTripFuzz, RandomWorkloadsSurvive) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  Workload wl;
  const int dims = 1 + static_cast<int>(rng() % 5);
  std::vector<DimensionSpec> specs;
  for (int d = 0; d < dims; ++d)
    specs.push_back(DimensionSpec{"dim" + std::to_string(d),
                                  2 + static_cast<int>(rng() % 30)});
  wl.space = EventSpace(std::move(specs));

  const int subs = static_cast<int>(rng() % 120);
  for (int i = 0; i < subs; ++i) {
    Subscriber s;
    s.node = static_cast<NodeId>(rng() % 50);
    std::vector<Interval> ivals;
    for (int d = 0; d < dims; ++d) {
      switch (rng() % 4) {
        case 0:
          ivals.push_back(Interval::All());
          break;
        case 1:
          ivals.push_back(Interval::AtMost(static_cast<double>(rng() % 100) / 7.0));
          break;
        case 2:
          ivals.push_back(Interval::GreaterThan(-static_cast<double>(rng() % 100) / 3.0));
          break;
        default: {
          const double lo = static_cast<double>(rng() % 1000) / 13.0 - 30.0;
          ivals.push_back(Interval(lo, lo + static_cast<double>(rng() % 50) / 9.0));
        }
      }
    }
    s.interest = Rect(std::move(ivals));
    wl.subscribers.push_back(std::move(s));
  }

  std::ostringstream os;
  WriteWorkload(os, wl);
  std::istringstream is(os.str());
  const Workload back = ReadWorkload(is);
  ASSERT_EQ(back.subscribers.size(), wl.subscribers.size());
  for (std::size_t i = 0; i < wl.subscribers.size(); ++i) {
    EXPECT_EQ(back.subscribers[i].node, wl.subscribers[i].node);
    EXPECT_EQ(back.subscribers[i].interest, wl.subscribers[i].interest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadRoundTripFuzz, ::testing::Range(0, 10));

TEST(SerializeFuzz, TruncationAlwaysThrowsCleanly) {
  Rng rng(3);
  const TransitStubNetwork net = GenerateTransitStub(PaperNet100(), rng);
  std::ostringstream os;
  WriteTransitStub(os, net);
  const std::string full = os.str();

  // Truncate at a spread of offsets; every prefix must fail loudly.
  for (std::size_t frac = 1; frac < 20; ++frac) {
    const std::size_t cut = full.size() * frac / 20;
    std::istringstream is(full.substr(0, cut));
    EXPECT_THROW(ReadTransitStub(is), std::runtime_error) << "cut=" << cut;
  }
  // The untruncated file still parses.
  std::istringstream ok(full);
  EXPECT_NO_THROW(ReadTransitStub(ok));
}

TEST(SerializeFuzz, SingleCharacterCorruptionNeverCrashes) {
  Rng rng(4);
  const TransitStubNetwork net = GenerateTransitStub(PaperNet100(), rng);
  std::ostringstream os;
  WriteTransitStub(os, net);
  const std::string full = os.str();

  std::mt19937_64 mut(9);
  for (int trial = 0; trial < 60; ++trial) {
    std::string corrupted = full;
    const std::size_t pos = mut() % corrupted.size();
    corrupted[pos] = static_cast<char>('!' + mut() % 90);
    std::istringstream is(corrupted);
    // Either it still parses (the corruption hit a digit and produced
    // another valid number) or it throws a parse error — never UB/crash.
    try {
      const TransitStubNetwork back = ReadTransitStub(is);
      EXPECT_GE(back.graph.num_nodes(), 0);
    } catch (const std::exception&) {
      // expected for most corruptions
    }
  }
}

// --- broker formats -------------------------------------------------------

BrokerSnapshot RandomSnapshot(std::mt19937_64& rng) {
  BrokerSnapshot snap;
  snap.seq = rng() % 1000;
  const int dims = 1 + static_cast<int>(rng() % 4);
  std::vector<DimensionSpec> specs;
  for (int d = 0; d < dims; ++d)
    specs.push_back(DimensionSpec{"dim" + std::to_string(d),
                                  2 + static_cast<int>(rng() % 20)});
  snap.workload.space = EventSpace(std::move(specs));
  const int subs = static_cast<int>(rng() % 40);
  for (int i = 0; i < subs; ++i) {
    Subscriber s;
    s.node = static_cast<NodeId>(rng() % 30);
    std::vector<Interval> ivals;
    for (int d = 0; d < dims; ++d) {
      if (rng() % 5 == 0) {
        ivals.push_back(Interval());  // tombstoned dimension
      } else {
        const double lo = static_cast<double>(rng() % 100) / 7.0;
        ivals.push_back(Interval(lo, lo + static_cast<double>(rng() % 30) / 11.0));
      }
    }
    s.interest = Rect(std::move(ivals));
    snap.workload.subscribers.push_back(std::move(s));
  }
  snap.num_groups = 1 + static_cast<int>(rng() % 8);
  const int cells = static_cast<int>(rng() % 50);
  for (int c = 0; c < cells; ++c)
    snap.assignment.push_back(static_cast<int>(rng() % (static_cast<std::uint64_t>(snap.num_groups) + 1)) - 1);
  snap.cells_fed = snap.assignment.size();
  snap.churn_since_full_build = rng() % 100;
  const int queue = static_cast<int>(rng() % 20);
  for (int q = 0; q < queue; ++q)
    snap.queue_state.push_back(static_cast<double>(rng() % 100000) / 13.0);
  snap.stats.commands_applied = rng() % 10000;
  snap.stats.publishes = rng() % 10000;
  snap.stats.journal_bytes = rng() % 100000;
  return snap;
}

class BrokerSnapshotFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BrokerSnapshotFuzz, RandomSnapshotsSurvive) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 77);
  const BrokerSnapshot snap = RandomSnapshot(rng);
  std::ostringstream os;
  WriteBrokerSnapshot(os, snap);
  std::istringstream is(os.str());
  const BrokerSnapshot back = ReadBrokerSnapshot(is);
  EXPECT_EQ(back.seq, snap.seq);
  EXPECT_EQ(back.assignment, snap.assignment);
  EXPECT_EQ(back.queue_state, snap.queue_state);
  EXPECT_EQ(back.stats, snap.stats);
  ASSERT_EQ(back.workload.subscribers.size(), snap.workload.subscribers.size());
  for (std::size_t i = 0; i < snap.workload.subscribers.size(); ++i)
    EXPECT_EQ(back.workload.subscribers[i].interest,
              snap.workload.subscribers[i].interest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrokerSnapshotFuzz, ::testing::Range(0, 10));

enum class BrokerFile { kSnapshot, kJournal, kManifest };

std::string SampleBrokerFiles(std::uint64_t seed, BrokerFile kind) {
  std::mt19937_64 rng(seed);
  std::ostringstream os;
  if (kind == BrokerFile::kJournal) {
    WriteJournalHeader(os, 2);
    for (std::uint64_t seq = 1; seq <= 12; ++seq) {
      JournalRecord rec;
      rec.seq = seq;
      rec.cmd.time_ms = static_cast<double>(seq) * 1.5;
      switch (rng() % 4) {
        case 0:
          rec.cmd.type = BrokerCommandType::kSubscribe;
          rec.cmd.node = static_cast<NodeId>(rng() % 20);
          rec.cmd.interest = Rect({Interval(1.0, 4.5), Interval::AtMost(3.0)});
          break;
        case 1:
          rec.cmd.type = BrokerCommandType::kUnsubscribe;
          rec.cmd.subscriber = static_cast<SubscriberId>(rng() % 20);
          break;
        case 2:
          rec.cmd.type = BrokerCommandType::kUpdate;
          rec.cmd.subscriber = static_cast<SubscriberId>(rng() % 20);
          rec.cmd.interest = Rect({Interval::All(), Interval(0.25, 2.0)});
          break;
        default:
          rec.cmd.type = BrokerCommandType::kPublish;
          rec.cmd.node = static_cast<NodeId>(rng() % 20);
          rec.cmd.point = {static_cast<double>(rng() % 10),
                           static_cast<double>(rng() % 10)};
      }
      WriteJournalRecord(os, rec, 2);
    }
  } else if (kind == BrokerFile::kSnapshot) {
    WriteBrokerSnapshot(os, RandomSnapshot(rng));
  } else {
    FleetManifest m;
    m.seq = rng() % 1000;
    m.match_chain = rng();
    for (std::uint64_t k = 1 + rng() % 4; k > 0; --k)
      m.shard_seqs.push_back(rng() % 500);
    WriteFleetManifest(os, m);
  }
  return os.str();
}

TEST(SerializeFuzz, BrokerSnapshotTruncationAlwaysThrowsCleanly) {
  const std::string full = SampleBrokerFiles(5, BrokerFile::kSnapshot);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream is(full.substr(0, cut));
    EXPECT_THROW(ReadBrokerSnapshot(is), std::runtime_error) << "cut=" << cut;
  }
  std::istringstream ok(full);
  EXPECT_NO_THROW(ReadBrokerSnapshot(ok));
}

// Every single-character change to a snapshot, journal or manifest throws
// its typed error: the CRCs leave no corrupted digit that still parses.
TEST(SerializeFuzz, BrokerFilesSingleCharacterCorruptionNeverCrashes) {
  for (const BrokerFile kind :
       {BrokerFile::kSnapshot, BrokerFile::kJournal, BrokerFile::kManifest}) {
    const std::string full = SampleBrokerFiles(6, kind);
    std::mt19937_64 mut(11);
    for (int trial = 0; trial < 60; ++trial) {
      std::string corrupted = full;
      const std::size_t pos = mut() % corrupted.size();
      char c = static_cast<char>('!' + mut() % 90);
      if (c == corrupted[pos]) c = c == 'z' ? '!' : static_cast<char>(c + 1);
      corrupted[pos] = c;
      std::istringstream is(corrupted);
      const std::string where = "trial " + std::to_string(trial) + " pos " +
                                std::to_string(pos);
      switch (kind) {
        case BrokerFile::kJournal:
          EXPECT_THROW(ReadJournal(is), JournalError) << where;
          break;
        case BrokerFile::kSnapshot:
          EXPECT_THROW(ReadBrokerSnapshot(is), std::runtime_error) << where;
          break;
        case BrokerFile::kManifest:
          EXPECT_THROW(ReadFleetManifest(is), std::runtime_error) << where;
          break;
      }
    }
  }
}

// Torn tail at EVERY byte offset of the final record: wherever the crash
// lands mid-append, the lenient reader must keep exactly the complete
// records, and Broker::Recover on them must reproduce — bit for bit — the
// state of a broker that executed exactly those commands.
TEST(SerializeFuzz, TornTailAtEveryByteOffsetRecoversToLastCompleteRecord) {
  const Scenario sc = MakeStockScenario(30, PublicationHotSpots::kOne, 61);
  BrokerOptions opts;
  opts.group.num_groups = 6;
  opts.group.max_cells = 200;

  const std::vector<JournalRecord> schedule =
      BuildChaosSchedule(sc.net, sc.workload, 6, 3, 7);
  ASSERT_GE(schedule.size(), 4u);

  // Reference digests and the seq-0 snapshot all recoveries start from.
  Broker ref(sc.workload, *sc.pub, sc.net.graph, opts);
  const BrokerSnapshot base = ref.snapshot();
  std::vector<std::uint64_t> ref_digest;
  ref_digest.push_back(ref.state_digest());
  for (const JournalRecord& rec : schedule) {
    ref.apply(rec);
    ref_digest.push_back(ref.state_digest());
  }

  std::ostringstream os;
  const std::size_t dims = sc.workload.space.dims();
  WriteJournalHeader(os, dims);
  for (const JournalRecord& rec : schedule) WriteJournalRecord(os, rec, dims);
  const std::string full = os.str();
  // First byte of the final record's line.
  const std::size_t last_start = full.rfind('\n', full.size() - 2) + 1;
  const std::uint64_t complete = schedule.back().seq - 1;

  for (std::size_t cut = last_start; cut < full.size(); ++cut) {
    std::istringstream is(full.substr(0, cut));
    const JournalReadResult jr = ReadJournalLenient(is);
    // cut == last_start leaves a cleanly terminated journal; any deeper cut
    // leaves an unterminated fragment the reader must classify as torn.
    EXPECT_EQ(jr.torn_tail, cut > last_start) << "cut=" << cut;
    ASSERT_EQ(jr.journal.records.size(), complete) << "cut=" << cut;

    const auto broker = Broker::Recover(base, jr.journal.records, *sc.pub,
                                        sc.net.graph, opts);
    EXPECT_EQ(broker->seq(), complete) << "cut=" << cut;
    EXPECT_EQ(broker->state_digest(), ref_digest[complete]) << "cut=" << cut;
  }

  // The untouched journal still replays to the very end.
  std::istringstream whole(full);
  const JournalReadResult jr = ReadJournalLenient(whole);
  EXPECT_FALSE(jr.torn_tail);
  const auto broker =
      Broker::Recover(base, jr.journal.records, *sc.pub, sc.net.graph, opts);
  EXPECT_EQ(broker->state_digest(), ref_digest.back());
}

}  // namespace
}  // namespace pubsub
