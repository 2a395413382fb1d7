#include "io/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

#include "io/crc32.h"
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

// The message `read` throws on `text` ("" if it accepts it).
template <typename ReadFn>
std::string ErrorOf(ReadFn read, const std::string& text) {
  std::istringstream is(text);
  try {
    read(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// The CRC field as the formats spell it: eight lowercase hex digits.
std::string CrcField(std::string_view bytes) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08x",
                static_cast<unsigned>(Crc32c(bytes.data(), bytes.size())));
  return buf;
}

// A snapshot or manifest (trailer included or not) with its crc32c trailer
// recomputed, so a damaged input gets past the checksum to the parse check
// a test targets.
std::string Reseal(std::string text) {
  const std::size_t trailer = text.rfind("crc32c ");
  if (trailer != std::string::npos) text.resize(trailer);
  return text + "crc32c " + CrcField(text) + ' ' +
         std::to_string(text.size()) + '\n';
}

// A hand-written journal record line with a valid CRC field.
std::string Sealed(const std::string& body) {
  return body + ' ' + CrcField(body) + '\n';
}

TEST(Crc32, KnownAnswerAndChaining) {
  // CRC-32C check value from RFC 3720 ("123456789" -> 0xE3069283).
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
  // Chained partial checksums equal the one-shot checksum.
  EXPECT_EQ(Crc32c(s + 4, 5, Crc32c(s, 4)), Crc32c(s, 9));
  EXPECT_NE(Crc32c(s, 9), Crc32c(s, 8));
  // The 32-byte iSCSI test vectors of RFC 3720 (B.4) span whole 8-byte
  // blocks; chaining at every split point crosses each block boundary.
  std::string zeros(32, '\0'), ones(32, '\xFF'), up(32, '\0'), down(32, '\0');
  for (std::size_t i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Crc32c(zeros.data(), 32), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), 32), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(up.data(), 32), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(down.data(), 32), 0x113FDB5Cu);
  for (std::size_t cut = 0; cut <= 32; ++cut)
    EXPECT_EQ(Crc32c(up.data() + cut, 32 - cut, Crc32c(up.data(), cut)),
              0x46DD794Eu)
        << "cut=" << cut;
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

// A transit-stub file's embedded graph is parsed with ReadGraph's grammar:
// an endpoint past int's range is not narrowed into a valid node, and a
// negative one fails on its own line rather than inside Graph::add_edge.
TEST(Serialize, TransitStubRejectsOutOfRangeEdgeAtItsLine) {
  Rng rng(2);
  std::ostringstream os;
  WriteTransitStub(os, GenerateTransitStub(PaperNetSection5(), rng));
  const std::string full = os.str();
  // Lines 1-4 are the two headers and the node and edge counts; line 5 is
  // the first edge.
  std::size_t line5 = 0;
  for (int i = 0; i < 4; ++i) line5 = full.find('\n', line5) + 1;
  const std::size_t end5 = full.find('\n', line5);
  for (const std::string edge : {"4294967297 2 1.0", "-3 1 1.0"}) {
    std::string text = full;
    text.replace(line5, end5 - line5, edge);
    EXPECT_NE(ErrorOf(ReadTransitStub, text).find("parse error at line 5"),
              std::string::npos)
        << edge;
  }
}

// Integer fields narrowed to int are range-checked as longs first, so a
// value past int (4294967297 = 2^32 + 1, which a bare cast reads as 1)
// fails at its own line in every reader.
constexpr const char* kPastInt = "4294967297";

TEST(Serialize, WorkloadRejectsOutOfRangeIntegersAtTheirLine) {
  const std::string head = "pubsub-workload v1\ndims 1\n";
  EXPECT_NE(ErrorOf(ReadWorkload,
                    head + "bst " + kPastInt + "\nsubscribers 0\n")
                .find("parse error at line 3: domain size out of range"),
            std::string::npos);
  EXPECT_NE(ErrorOf(ReadWorkload, head + "bst 0\nsubscribers 0\n")
                .find("parse error at line 3"),
            std::string::npos);
  for (const std::string& node : {std::string(kPastInt), std::string("-1")})
    EXPECT_NE(ErrorOf(ReadWorkload,
                      head + "bst 3\nsubscribers 1\n" + node + " -1 2\n")
                  .find("parse error at line 5: node id out of range"),
              std::string::npos)
        << node;
}

TEST(Serialize, JournalRejectsOutOfRangeIntegersAtTheirLine) {
  const std::string head = "pubsub-journal v2\ndims 1\n";
  const std::string big = kPastInt;
  for (const std::string& body :
       {"1 0.5 sub " + big + " -1 2", "1 0.5 unsub " + big,
        "1 0.5 upd " + big + " -1 2", "1 0.5 pub " + big + " 1",
        std::string("1 0.5 unsub -1")}) {
    const std::string error = ErrorOf(ReadJournal, head + Sealed(body));
    EXPECT_NE(error.find("at line 3"), std::string::npos) << body;
    EXPECT_NE(error.find("out of range"), std::string::npos) << body;
  }
}

TEST(Serialize, TransitStubRejectsOutOfRangeIntegersAtTheirLine) {
  Rng rng(2);
  std::ostringstream os;
  WriteTransitStub(os, GenerateTransitStub(PaperNetSection5(), rng));
  const std::string full = os.str();
  // Replace the first token of the line after the one starting with `key`
  // (or, with `same`, the value on the key's own line) by 2^32 + 1, and
  // expect the reader to fail at that line.
  const auto expect_fails_at = [&](const std::string& key, bool same) {
    std::string text = full;
    std::size_t at = text.find("\n" + key + ' ') + 1;
    if (same) {
      at += key.size() + 1;
    } else {
      at = text.find('\n', at) + 1;
    }
    const std::size_t end = text.find_first_of(" \n", at);
    text.replace(at, end - at, kPastInt);
    const long line = std::count(text.begin(),
                                 text.begin() + static_cast<std::ptrdiff_t>(at),
                                 '\n') + 1;
    EXPECT_NE(ErrorOf(ReadTransitStub, text)
                  .find("parse error at line " + std::to_string(line)),
              std::string::npos)
        << key;
  };
  expect_fails_at("stubs", true);
  expect_fails_at("node-meta", false);
  expect_fails_at("block-of-stub", false);
}

TEST(Serialize, ClusteringRejectsOutOfRangeIntegersAtTheirLine) {
  const std::string head = "pubsub-clustering v1\n";
  EXPECT_NE(ErrorOf(ReadClustering,
                    head + "groups " + kPastInt + "\ncells 0\n")
                .find("parse error at line 2: group count out of range"),
            std::string::npos);
  for (const std::string& g : {std::string(kPastInt), std::string("2"),
                               std::string("-2")})
    EXPECT_NE(ErrorOf(ReadClustering, head + "groups 2\ncells 1\n" + g + "\n")
                  .find("parse error at line 4: group id out of range"),
              std::string::npos)
        << g;
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
}

TEST(Serialize, BrokerSnapshotRejectsVersionSkewAndDamage) {
  std::ostringstream os;
  WriteBrokerSnapshot(os, MakeBrokerSnapshot());
  const std::string full = os.str();
  EXPECT_EQ(ErrorOf(ReadBrokerSnapshot, full), "");

  // Any other format version fails as a bad header, not mis-parsed: a
  // future one, the pre-checksum v1-v3 formats, and v4, which also stored
  // the covering table.
  const std::string header = "pubsub-broker-snapshot v5";
  for (const std::string version : {"v1", "v2", "v3", "v4", "v6"}) {
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
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, Reseal(short_stats))
                .find("fields, got"),
            std::string::npos);

  // Negative counters are rejected.
  std::string negative = full;
  negative.replace(negative.find("seq 42"), 6, "seq -2");
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, Reseal(negative))
                .find("negative counter"),
            std::string::npos);

  // One changed digit in the group assignment (the clustering a recovered
  // broker adopts verbatim) still parses, so only the checksum catches it.
  std::string regrouped = full;
  const std::size_t cells = regrouped.find("cells 4\n");
  const std::size_t second = regrouped.find('\n', cells + 8) + 1;
  ASSERT_EQ(regrouped.substr(second, 2), "3\n");
  regrouped[second] = '1';
  EXPECT_EQ(ErrorOf(ReadBrokerSnapshot, Reseal(regrouped)), "");
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, regrouped).find("checksum mismatch"),
            std::string::npos);

  // A damaged or missing trailer: a torn tail loses it.
  std::string bad_crc = full;
  const std::size_t hex = bad_crc.rfind("crc32c ") + 7;
  bad_crc[hex] = bad_crc[hex] == '0' ? '1' : '0';
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, bad_crc).find("checksum mismatch"),
            std::string::npos);
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, full.substr(0, full.rfind("crc32c ")))
                .find("missing crc32c trailer"),
            std::string::npos);
  EXPECT_NE(ErrorOf(ReadBrokerSnapshot, full.substr(0, full.size() - 1))
                .find("unterminated"),
            std::string::npos);
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
  // Publish coordinates are lattice values (the reader refuses any other);
  // 2^53 − 1, the largest integer a double holds exactly, needs all 16
  // digits to round-trip.
  recs[3].cmd.point = {-3.0, 9007199254740991.0};
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
  const auto error_of = [](const std::string& text) {
    return ErrorOf(ReadJournal, text);
  };
  EXPECT_EQ(error_of(full), "");

  // The pre-checksum v1 format, and a future one, fail as a bad header.
  for (const std::string version : {"v1", "v3"}) {
    std::string skewed = full;
    skewed.replace(skewed.find("v2"), 2, version);
    EXPECT_NE(error_of(skewed).find("[bad-header]"), std::string::npos);
  }

  // A record that lost a token fails on its field count instead of
  // inventing a command, even with a valid CRC.  (A cut *within* a numeric
  // token can still parse as a shorter valid number; the CRC is what
  // guards that.)
  EXPECT_NE(error_of(full + Sealed("5 4.5 pub 2 1.25"))  // coordinate lost
                .find("bad publish record"),
            std::string::npos);
  EXPECT_NE(error_of(full.substr(0, 10)), "");

  // Unknown command types and bad timestamps are rejected.
  const std::string header = "pubsub-journal v2\ndims 2\n";
  EXPECT_NE(error_of(header + Sealed("1 0.5 frobnicate 3"))
                .find("unknown journal record type"),
            std::string::npos);
  for (const std::string time : {"-4", "inf"})
    EXPECT_NE(error_of(header + Sealed("1 " + time + " unsub 3"))
                  .find("bad command timestamp"),
              std::string::npos);

  // Damage that still parses is caught by the record's CRC, at its line
  // (the last record is line 6): a first byte turned to '#' does not make
  // the record a comment, and a changed origin node does not replay.
  std::string commented = full;
  const std::size_t last = commented.rfind('\n', commented.size() - 2) + 1;
  commented[last] = '#';
  EXPECT_NE(error_of(commented).find("[malformed-record] at line 6"),
            std::string::npos);
  std::string moved = full;
  moved.replace(moved.find(" pub 2 "), 7, " pub 3 ");
  EXPECT_NE(error_of(moved).find("[malformed-record] at line 6"),
            std::string::npos);
  EXPECT_NE(error_of(moved).find("checksum mismatch"), std::string::npos);
  // Nor is a blank line between records skipped.
  std::string blank = full;
  blank.insert(last, "\n");
  EXPECT_NE(error_of(blank).find("[malformed-record] at line 6"),
            std::string::npos);
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
  // whether the prefix still passes its CRC and parses as a record or not.
  EXPECT_EQ(code_of(full.substr(0, full.size() - 1)),
            JournalErrorCode::kTornTail);
  // Cut into the record's body, so the line fails its CRC.
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

// A publish off the lattice is a command the broker refuses, so the reader
// refuses it too, at its own line and on both reads: the record is
// terminated, so it is damage, never a torn tail.
TEST(Serialize, JournalRejectsAnOffLatticePublishAtItsLine) {
  const std::string text = "pubsub-journal v2\ndims 2\n" +
                           Sealed("1 0.5 pub 3 1 4") +
                           Sealed("2 0.5 pub 3 2.5 4");
  for (const bool lenient : {false, true}) {
    std::istringstream is(text);
    try {
      if (lenient) {
        ReadJournalLenient(is);
      } else {
        ReadJournal(is);
      }
      ADD_FAILURE() << "expected a JournalError, lenient=" << lenient;
    } catch (const JournalError& e) {
      EXPECT_EQ(e.code(), JournalErrorCode::kMalformedRecord) << lenient;
      EXPECT_EQ(e.line_no(), 4) << lenient;
      EXPECT_NE(std::string(e.what()).find("[malformed-record] at line 4"),
                std::string::npos)
          << e.what();
    }
  }
}

FleetManifest SampleManifest() {
  FleetManifest m;
  m.seq = 57;
  m.match_chain = 0xfedcba9876543210ull;  // needs the full unsigned range
  m.shard_seqs = {31, 26};
  return m;
}

TEST(Serialize, FleetManifestRejectsDamage) {
  std::ostringstream os;
  WriteFleetManifest(os, SampleManifest());
  const std::string full = os.str();
  const auto error_of = [](const std::string& text) {
    return ErrorOf(ReadFleetManifest, text);
  };
  std::istringstream is(full);
  const FleetManifest back = ReadFleetManifest(is);
  EXPECT_EQ(back.seq, 57u);
  EXPECT_EQ(back.match_chain, 0xfedcba9876543210ull);
  EXPECT_EQ(back.shard_seqs, (std::vector<std::uint64_t>{31, 26}));

  const auto damaged = [&full](const std::string& from, const std::string& to) {
    std::string text = full;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  // Negative fleet and shard sequence numbers fail the parse, not wrap
  // around to 2^64 - n.
  EXPECT_NE(error_of(Reseal(damaged("seq 57", "seq -1"))).find("negative"),
            std::string::npos);
  EXPECT_NE(error_of(Reseal(damaged("shard 0 31", "shard 0 -3")))
                .find("negative"),
            std::string::npos);
  EXPECT_NE(error_of(Reseal(damaged("shard 1 26", "shard 0 26")))
                .find("shard entries out of order"),
            std::string::npos);
  // The pre-checksum v1 format and v2, which stored the id maps, fail as a
  // bad header.
  for (const char* old_header : {"manifest v1", "manifest v2"})
    EXPECT_NE(error_of(damaged("manifest v3", old_header))
                  .find("expected 'pubsub-fleet-manifest v3'"),
              std::string::npos)
        << old_header;
  // Any unresealed change, and a damaged trailer, fail the checksum.
  EXPECT_NE(error_of(damaged("shard 0 31", "shard 0 30"))
                .find("checksum mismatch"),
            std::string::npos);
  std::string bad_trailer = full;
  char& count_digit = bad_trailer[bad_trailer.size() - 2];  // trailer's length
  count_digit = count_digit == '9' ? '8' : '9';
  EXPECT_NE(error_of(bad_trailer).find("checksum mismatch"), std::string::npos);
  EXPECT_NE(error_of(full.substr(0, full.rfind("crc32c ")))
                .find("missing crc32c trailer"),
            std::string::npos);
}

TEST(Serialize, FileHelpersRoundTrip) {
  const std::string path = "/tmp/pubsub_serialize_test.txt";
  SaveToFile(path, "hello\nworld\n");
  EXPECT_EQ(LoadFromFile(path), "hello\nworld\n");
  EXPECT_THROW(LoadFromFile("/nonexistent/dir/file"), std::runtime_error);
}

}  // namespace
}  // namespace pubsub
