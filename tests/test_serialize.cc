#include "io/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/scenario.h"

namespace pubsub {
namespace {

template <typename T, typename WriteFn, typename ReadFn>
T RoundTrip(const T& value, WriteFn write, ReadFn read) {
  std::ostringstream os;
  write(os, value);
  std::istringstream is(os.str());
  return read(is);
}

TEST(Serialize, GraphRoundTrip) {
  Rng rng(1);
  const TransitStubNetwork net = GenerateTransitStub(PaperNet100(), rng);
  const Graph& g = net.graph;
  const Graph back = RoundTrip(g, WriteGraph, ReadGraph);
  ASSERT_EQ(back.num_nodes(), g.num_nodes());
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(back.edge(e).u, g.edge(e).u);
    EXPECT_EQ(back.edge(e).v, g.edge(e).v);
    EXPECT_EQ(back.edge(e).cost, g.edge(e).cost);
  }
}

TEST(Serialize, TransitStubRoundTrip) {
  Rng rng(2);
  const TransitStubNetwork net = GenerateTransitStub(PaperNetSection5(), rng);
  const TransitStubNetwork back = RoundTrip(net, WriteTransitStub, ReadTransitStub);
  EXPECT_EQ(back.graph.num_nodes(), net.graph.num_nodes());
  EXPECT_EQ(back.graph.num_edges(), net.graph.num_edges());
  EXPECT_EQ(back.num_stubs, net.num_stubs);
  EXPECT_EQ(back.transit_nodes, net.transit_nodes);
  EXPECT_EQ(back.stub_of_node, net.stub_of_node);
  EXPECT_EQ(back.block_of_node, net.block_of_node);
  EXPECT_EQ(back.block_of_stub, net.block_of_stub);
  EXPECT_EQ(back.stub_members, net.stub_members);
}

TEST(Serialize, WorkloadRoundTripPreservesUnboundedEnds) {
  Rng rng(3);
  const TransitStubNetwork net = GenerateTransitStub(PaperNet100(), rng);
  Section3Params params;  // regional dim can be the full (unbounded) domain
  params.regionalism = 0.5;
  Rng wrng(4);
  Workload wl = GenerateSection3Subscriptions(net, 200, params, wrng);
  // Inject a genuinely unbounded rectangle.
  wl.subscribers[0].interest = Rect({Interval::All(), Interval::AtMost(5),
                                     Interval::GreaterThan(2), Interval(1, 2)});

  const Workload back = RoundTrip(wl, WriteWorkload, ReadWorkload);
  ASSERT_EQ(back.subscribers.size(), wl.subscribers.size());
  EXPECT_EQ(back.space.dims(), wl.space.dims());
  for (std::size_t d = 0; d < wl.space.dims(); ++d) {
    EXPECT_EQ(back.space.dim(d).name, wl.space.dim(d).name);
    EXPECT_EQ(back.space.dim(d).domain_size, wl.space.dim(d).domain_size);
  }
  for (std::size_t i = 0; i < wl.subscribers.size(); ++i) {
    EXPECT_EQ(back.subscribers[i].node, wl.subscribers[i].node);
    EXPECT_EQ(back.subscribers[i].interest, wl.subscribers[i].interest);
  }
}

TEST(Serialize, WorkloadRoundTripExactDoubles) {
  Workload wl;
  wl.space = EventSpace({{"x", 21}});
  Subscriber s;
  s.node = 0;
  s.interest = Rect({Interval(0.1 + 0.2, 19.999999999999996)});
  wl.subscribers.push_back(s);
  const Workload back = RoundTrip(wl, WriteWorkload, ReadWorkload);
  EXPECT_EQ(back.subscribers[0].interest[0].lo(), 0.1 + 0.2);
  EXPECT_EQ(back.subscribers[0].interest[0].hi(), 19.999999999999996);
}

TEST(Serialize, ClusteringRoundTrip) {
  ClusteringFile c;
  c.num_groups = 5;
  c.assignment = {0, 4, 2, -1, 1, 0};
  c.cells_fed = c.assignment.size();
  const ClusteringFile back = RoundTrip(c, WriteClustering, ReadClustering);
  EXPECT_EQ(back.num_groups, c.num_groups);
  EXPECT_EQ(back.cells_fed, c.cells_fed);
  EXPECT_EQ(back.assignment, c.assignment);
}

TEST(Serialize, RejectsBadMagic) {
  std::istringstream is("not-a-pubsub-file\n");
  EXPECT_THROW(ReadGraph(is), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedInput) {
  std::istringstream is("pubsub-graph v1\nnodes 3\nedges 2\n0 1 1.5\n");
  EXPECT_THROW(ReadGraph(is), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeEdge) {
  std::istringstream is("pubsub-graph v1\nnodes 2\nedges 1\n0 7 1.5\n");
  EXPECT_THROW(ReadGraph(is), std::runtime_error);
}

TEST(Serialize, RejectsMalformedNumbers) {
  std::istringstream is("pubsub-graph v1\nnodes 2\nedges 1\n0 1 abc\n");
  EXPECT_THROW(ReadGraph(is), std::runtime_error);
  std::istringstream is2("pubsub-clustering v1\ngroups 2\ncells 1\n9\n");
  EXPECT_THROW(ReadClustering(is2), std::runtime_error);
}

TEST(Serialize, IgnoresCommentsAndBlankLines) {
  std::istringstream is(
      "# a comment\n\npubsub-graph v1\n# another\nnodes 2\nedges 1\n0 1 2.5\n");
  const Graph g = ReadGraph(is);
  EXPECT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.edge(0).cost, 2.5);
}

BrokerSnapshot MakeBrokerSnapshot() {
  BrokerSnapshot snap;
  snap.seq = 42;
  snap.workload.space = EventSpace({{"x", 21}, {"y", 11}});
  Subscriber s;
  s.node = 3;
  s.interest = Rect({Interval(0.5, 7.25), Interval::AtMost(4.0)});
  snap.workload.subscribers.push_back(s);
  s.node = 1;  // tombstoned slot: empty interest must survive the trip
  s.interest = Rect(std::vector<Interval>(2, Interval()));
  snap.workload.subscribers.push_back(s);
  snap.num_groups = 4;
  snap.assignment = {0, 3, -1, 2};
  snap.cells_fed = snap.assignment.size();
  snap.churn_since_full_build = 9;
  snap.queue_state = {0.0, 0.1 + 0.2, 123.456};
  std::uint64_t n = 100;
  for (std::uint64_t* field :
       {&snap.stats.commands_applied, &snap.stats.subscribes,
        &snap.stats.unsubscribes, &snap.stats.updates, &snap.stats.publishes,
        &snap.stats.events_matched, &snap.stats.multicast_events,
        &snap.stats.unicast_events, &snap.stats.messages_emitted,
        &snap.stats.wasted_deliveries, &snap.stats.refreshes,
        &snap.stats.full_rebuilds, &snap.stats.journal_bytes,
        &snap.stats.snapshot_bytes, &snap.stats.replayed_records,
        &snap.stats.journal_flush_failures, &snap.stats.journal_flush_retries,
        &snap.stats.degraded_entries, &snap.stats.mutations_rejected})
    *field = n++;  // every counter distinct: field-order bugs can't cancel
  // Covering image: an indexed parent with a covered child and a free slot,
  // with rider/child lists in deliberately non-sorted order — the format
  // must preserve them verbatim.
  CoveringEntryState parent;
  parent.id = 0;
  parent.rect = Rect({Interval(0.5, 7.25), Interval::AtMost(4.0)});
  parent.parent = -1;
  parent.subs = {3, 0};
  parent.children = {1};
  CoveringEntryState child;
  child.id = 1;
  child.rect = Rect({Interval(1.0, 2.0), Interval(1.5, 3.5)});
  child.parent = 0;
  child.subs = {2};
  snap.covering.entries = {parent, child};
  snap.covering.free_list = {2};
  return snap;
}

TEST(Serialize, BrokerSnapshotRoundTrip) {
  const BrokerSnapshot snap = MakeBrokerSnapshot();
  const BrokerSnapshot back =
      RoundTrip(snap, WriteBrokerSnapshot, ReadBrokerSnapshot);
  EXPECT_EQ(back.seq, snap.seq);
  EXPECT_EQ(back.num_groups, snap.num_groups);
  EXPECT_EQ(back.cells_fed, snap.cells_fed);
  EXPECT_EQ(back.assignment, snap.assignment);
  EXPECT_EQ(back.churn_since_full_build, snap.churn_since_full_build);
  EXPECT_EQ(back.queue_state, snap.queue_state);  // exact doubles
  EXPECT_EQ(back.stats, snap.stats);
  ASSERT_EQ(back.workload.subscribers.size(), snap.workload.subscribers.size());
  for (std::size_t i = 0; i < snap.workload.subscribers.size(); ++i) {
    EXPECT_EQ(back.workload.subscribers[i].node,
              snap.workload.subscribers[i].node);
    EXPECT_EQ(back.workload.subscribers[i].interest,
              snap.workload.subscribers[i].interest);
  }
  ASSERT_EQ(back.covering.entries.size(), snap.covering.entries.size());
  for (std::size_t i = 0; i < snap.covering.entries.size(); ++i) {
    EXPECT_EQ(back.covering.entries[i].id, snap.covering.entries[i].id);
    EXPECT_EQ(back.covering.entries[i].rect, snap.covering.entries[i].rect);
    EXPECT_EQ(back.covering.entries[i].parent,
              snap.covering.entries[i].parent);
    EXPECT_EQ(back.covering.entries[i].subs, snap.covering.entries[i].subs);
    EXPECT_EQ(back.covering.entries[i].children,
              snap.covering.entries[i].children);
  }
  EXPECT_EQ(back.covering.free_list, snap.covering.free_list);
}

TEST(Serialize, BrokerSnapshotRejectsVersionSkewAndDamage) {
  std::ostringstream os;
  WriteBrokerSnapshot(os, MakeBrokerSnapshot());
  const std::string full = os.str();

  // Any other format version fails as a bad header, not mis-parsed: a
  // future one, and the pre-covering v1/v2 formats no reader accepts.
  const std::string header = "pubsub-broker-snapshot v3";
  for (const std::string version : {"v1", "v2", "v4"}) {
    std::string skewed = full;
    skewed.replace(skewed.find(header), header.size(),
                   "pubsub-broker-snapshot " + version);
    std::istringstream skew_is(skewed);
    try {
      ReadBrokerSnapshot(skew_is);
      ADD_FAILURE() << version << " snapshot accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("expected '" + header + "'"),
                std::string::npos)
          << e.what();
    }
  }

  // Too few stats counters (a stale writer) is a hard error.
  std::string short_stats = full;
  const std::size_t stats_pos = short_stats.find("stats ");
  const std::size_t stats_end = short_stats.find('\n', stats_pos);
  const std::size_t last_space = short_stats.rfind(' ', stats_end);
  short_stats.erase(last_space, stats_end - last_space);
  std::istringstream short_is(short_stats);
  EXPECT_THROW(ReadBrokerSnapshot(short_is), std::runtime_error);

  // Negative counters are rejected.
  std::string negative = full;
  negative.replace(negative.find("seq 42"), 6, "seq -2");
  std::istringstream neg_is(negative);
  EXPECT_THROW(ReadBrokerSnapshot(neg_is), std::runtime_error);
}

TEST(Serialize, BrokerSnapshotRejectsDamagedCovering) {
  std::ostringstream os;
  WriteBrokerSnapshot(os, MakeBrokerSnapshot());
  const std::string full = os.str();

  // Wrong covering magic/version.
  std::string skewed = full;
  skewed.replace(skewed.find("pubsub-covering v1"),
                 std::string("pubsub-covering v1").size(),
                 "pubsub-covering v2");
  std::istringstream skew_is(skewed);
  EXPECT_THROW(ReadBrokerSnapshot(skew_is), std::runtime_error);

  // A negative rider id inside an entry record is rejected.
  std::string negative = full;
  const std::size_t entry_pos = negative.find("entry 0");
  const std::size_t subs_pos = negative.find('\n', entry_pos) + 1;
  negative.replace(subs_pos, 1, "-3");  // first rider line ("3" -> "-3")
  std::istringstream neg_is(negative);
  EXPECT_THROW(ReadBrokerSnapshot(neg_is), std::runtime_error);

  // Truncation inside the covering section is rejected.
  std::string truncated = full.substr(0, full.find("entry 1"));
  std::istringstream trunc_is(truncated);
  EXPECT_THROW(ReadBrokerSnapshot(trunc_is), std::runtime_error);
}

std::vector<JournalRecord> SampleJournal() {
  std::vector<JournalRecord> recs(4);
  recs[0].seq = 1;
  recs[0].cmd.type = BrokerCommandType::kSubscribe;
  recs[0].cmd.time_ms = 0.125;
  recs[0].cmd.node = 7;
  recs[0].cmd.interest = Rect({Interval::All(), Interval::AtMost(3.5)});
  recs[1].seq = 2;
  recs[1].cmd.type = BrokerCommandType::kUpdate;
  recs[1].cmd.time_ms = 1.5;
  recs[1].cmd.subscriber = 0;
  recs[1].cmd.interest = Rect({Interval(0.1 + 0.2, 5.0), Interval::GreaterThan(2.0)});
  recs[2].seq = 3;
  recs[2].cmd.type = BrokerCommandType::kUnsubscribe;
  recs[2].cmd.time_ms = 2.25;
  recs[2].cmd.subscriber = 4;
  recs[3].seq = 4;
  recs[3].cmd.type = BrokerCommandType::kPublish;
  recs[3].cmd.time_ms = 3.75;
  recs[3].cmd.node = 2;
  recs[3].cmd.point = {1.25, 19.999999999999996};
  return recs;
}

std::string JournalText(const std::vector<JournalRecord>& recs,
                        std::size_t dims) {
  std::ostringstream os;
  WriteJournalHeader(os, dims);
  for (const JournalRecord& rec : recs) WriteJournalRecord(os, rec, dims);
  return os.str();
}

TEST(Serialize, JournalRoundTrip) {
  const std::vector<JournalRecord> recs = SampleJournal();
  std::istringstream is(JournalText(recs, 2));
  const JournalFile jf = ReadJournal(is);
  EXPECT_EQ(jf.dims, 2u);
  ASSERT_EQ(jf.records.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(jf.records[i].seq, recs[i].seq);
    EXPECT_EQ(jf.records[i].cmd.type, recs[i].cmd.type);
    EXPECT_EQ(jf.records[i].cmd.time_ms, recs[i].cmd.time_ms);
  }
  EXPECT_EQ(jf.records[0].cmd.node, 7);
  EXPECT_EQ(jf.records[0].cmd.interest, recs[0].cmd.interest);  // unbounded
  EXPECT_EQ(jf.records[1].cmd.interest, recs[1].cmd.interest);  // exact lo
  EXPECT_EQ(jf.records[2].cmd.subscriber, 4);
  EXPECT_EQ(jf.records[3].cmd.point, recs[3].cmd.point);
}

TEST(Serialize, JournalRejectsBadSequences) {
  std::vector<JournalRecord> gap = SampleJournal();
  gap[2].seq = 5;  // 1, 2, 5: lost updates
  std::istringstream gap_is(JournalText(gap, 2));
  EXPECT_THROW(ReadJournal(gap_is), std::runtime_error);

  std::vector<JournalRecord> dup = SampleJournal();
  dup[1].seq = 1;  // 1, 1: duplicated command
  std::istringstream dup_is(JournalText(dup, 2));
  EXPECT_THROW(ReadJournal(dup_is), std::runtime_error);

  std::vector<JournalRecord> zero = SampleJournal();
  zero[0].seq = 0;  // sequence numbers start at 1
  std::istringstream zero_is(JournalText(zero, 2));
  EXPECT_THROW(ReadJournal(zero_is), std::runtime_error);
}

TEST(Serialize, JournalRejectsVersionSkewAndDamage) {
  const std::string full = JournalText(SampleJournal(), 2);

  std::string skewed = full;
  skewed.replace(skewed.find("v1"), 2, "v2");
  std::istringstream skew_is(skewed);
  EXPECT_THROW(ReadJournal(skew_is), std::runtime_error);

  // A torn final line — the classic crash-mid-append artifact — fails on
  // its field count instead of inventing a command.  (A cut *within* a
  // numeric token can still parse as a shorter valid number; the field
  // count is what guards a lost token.)
  std::istringstream torn(full + "5 4.5 pub 2 1.25\n");  // coordinate lost
  EXPECT_THROW(ReadJournal(torn), std::runtime_error);
  std::istringstream headless(full.substr(0, 10));
  EXPECT_THROW(ReadJournal(headless), std::runtime_error);

  // Unknown command types and bad timestamps are rejected.
  std::istringstream unknown(
      "pubsub-journal v1\ndims 2\n1 0.5 frobnicate 3\n");
  EXPECT_THROW(ReadJournal(unknown), std::runtime_error);
  std::istringstream negative_time("pubsub-journal v1\ndims 2\n1 -4 unsub 3\n");
  EXPECT_THROW(ReadJournal(negative_time), std::runtime_error);
  std::istringstream inf_time("pubsub-journal v1\ndims 2\n1 inf unsub 3\n");
  EXPECT_THROW(ReadJournal(inf_time), std::runtime_error);
}

// Journal failures carry distinct error codes, because they demand distinct
// operator responses: a torn tail is dropped and recovery proceeds, while a
// gap or interior damage means lost updates (docs/OPERATIONS.md).
TEST(Serialize, JournalErrorCodesDistinguishFailures) {
  const std::string full = JournalText(SampleJournal(), 2);
  const auto code_of = [](const std::string& text) {
    std::istringstream is(text);
    try {
      ReadJournal(is);
    } catch (const JournalError& e) {
      return e.code();
    }
    throw std::logic_error("expected a JournalError");
  };

  // Truncation of the final line (no trailing newline) is a torn tail —
  // whether the prefix still parses as a record or not.
  EXPECT_EQ(code_of(full.substr(0, full.size() - 1)),
            JournalErrorCode::kTornTail);
  // Cut deep enough to lose a whole field, so the line cannot parse.
  EXPECT_EQ(code_of(full.substr(0, full.size() - 21)),
            JournalErrorCode::kTornTail);

  // The same damage on a newline-terminated line is interior corruption.
  EXPECT_EQ(code_of(full.substr(0, full.size() - 21) + "\n"),
            JournalErrorCode::kMalformedRecord);

  // A terminated record with a skipped sequence number is lost updates.
  std::vector<JournalRecord> gap = SampleJournal();
  gap[3].seq = 9;
  EXPECT_EQ(code_of(JournalText(gap, 2)), JournalErrorCode::kSeqGap);

  // Header damage is its own class.
  EXPECT_EQ(code_of("pubsub-journal v9\ndims 2\n"),
            JournalErrorCode::kBadHeader);

  // The code name appears in what(), so a bare log line still classifies.
  try {
    std::istringstream is(full.substr(0, full.size() - 1));
    ReadJournal(is);
    FAIL() << "expected JournalError";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("torn-tail"), std::string::npos);
    EXPECT_GT(e.line_no(), 0);
  }
}

TEST(Serialize, LenientJournalReadDropsOnlyTheTornTail) {
  const std::string full = JournalText(SampleJournal(), 2);

  // Torn mid-record: the damaged line is dropped, complete records survive.
  std::istringstream torn(full.substr(0, full.size() - 21));
  const JournalReadResult a = ReadJournalLenient(torn);
  EXPECT_TRUE(a.torn_tail);
  EXPECT_EQ(a.journal.records.size(), 3u);
  EXPECT_FALSE(a.tail_error.empty());

  // Torn exactly at the newline: the final line parses, but without its
  // terminator it may be a prefix of a longer record — dropped regardless.
  std::istringstream clean_cut(full.substr(0, full.size() - 1));
  const JournalReadResult b = ReadJournalLenient(clean_cut);
  EXPECT_TRUE(b.torn_tail);
  EXPECT_EQ(b.journal.records.size(), 3u);

  // No damage: nothing dropped.
  std::istringstream whole(full);
  const JournalReadResult c = ReadJournalLenient(whole);
  EXPECT_FALSE(c.torn_tail);
  EXPECT_EQ(c.journal.records.size(), 4u);

  // Interior damage and gaps still throw even leniently.
  std::vector<JournalRecord> gap = SampleJournal();
  gap[2].seq = 7;
  std::istringstream gap_is(JournalText(gap, 2));
  EXPECT_THROW(ReadJournalLenient(gap_is), JournalError);
}

TEST(Serialize, FileHelpersRoundTrip) {
  const std::string path = "/tmp/pubsub_serialize_test.txt";
  SaveToFile(path, "hello\nworld\n");
  EXPECT_EQ(LoadFromFile(path), "hello\nworld\n");
  EXPECT_THROW(LoadFromFile("/nonexistent/dir/file"), std::runtime_error);
}

}  // namespace
}  // namespace pubsub
