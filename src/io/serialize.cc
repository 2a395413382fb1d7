#include "io/serialize.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "io/crc32.h"
#include "io/string_stream.h"

namespace pubsub {
namespace {

// Reader with line counting for error messages.  Blank and '#' lines are
// skipped unless `skip_comments` is false (the journal, whose every line
// must be a checksummed record).
class LineReader {
 public:
  explicit LineReader(std::istream& is, bool skip_comments = true)
      : is_(is), skip_comments_(skip_comments) {}

  std::string next() {
    std::string line;
    if (!next_or_eof(&line)) fail("unexpected end of file");
    return line;
  }

  // Like next(), but returns false at a clean end of file (for appendable
  // formats whose record count is not declared up front).
  bool next_or_eof(std::string* out) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_no_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (skip_comments_ && (line.empty() || line[0] == '#')) continue;
      // getline sets eofbit iff it stopped at end-of-stream instead of a
      // delimiter, so this is exactly "the line has its trailing newline".
      last_terminated_ = !is_.eof();
      *out = std::move(line);
      return true;
    }
    return false;
  }

  // Whether the line last returned by next()/next_or_eof ended in '\n'.
  // An unterminated final line is the signature of a crash mid-append
  // (records are serialized newline-included and written in one call).
  bool last_line_terminated() const { return last_terminated_; }

  int line_no() const { return line_no_; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("parse error at line " + std::to_string(line_no_) +
                             ": " + what);
  }

  void expect(const std::string& line, const std::string& want) {
    if (line != want) fail("expected '" + want + "', got '" + line + "'");
  }

 private:
  std::istream& is_;
  bool skip_comments_;
  int line_no_ = 0;
  bool last_terminated_ = true;
};

void WriteDouble(std::ostream& os, double x) {
  if (x == std::numeric_limits<double>::infinity())
    os << "inf";
  else if (x == -std::numeric_limits<double>::infinity())
    os << "-inf";
  else
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << x;
}

double ParseDouble(LineReader& r, const std::string& tok) {
  if (tok == "inf") return std::numeric_limits<double>::infinity();
  if (tok == "-inf") return -std::numeric_limits<double>::infinity();
  try {
    std::size_t pos = 0;
    const double v = std::stod(tok, &pos);
    if (pos != tok.size()) r.fail("trailing characters in number '" + tok + "'");
    return v;
  } catch (const std::exception&) {
    r.fail("bad number '" + tok + "'");
  }
}

long ParseLong(LineReader& r, const std::string& tok) {
  try {
    std::size_t pos = 0;
    const long v = std::stol(tok, &pos);
    if (pos != tok.size()) r.fail("trailing characters in integer '" + tok + "'");
    return v;
  } catch (const std::exception&) {
    r.fail("bad integer '" + tok + "'");
  }
}

// An integer field narrowed to int: the long is checked against [lo, hi]
// before the cast, so 4294967297 fails at its line instead of reading as 1.
int ParseInt(LineReader& r, const std::string& tok, long lo, long hi,
             const char* what) {
  const long v = ParseLong(r, tok);
  if (v < lo || v > hi)
    r.fail(std::string(what) + " out of range '" + tok + "'");
  return static_cast<int>(v);
}

constexpr long kIntMin = std::numeric_limits<int>::min();
constexpr long kIntMax = std::numeric_limits<int>::max();

std::vector<std::string> Split(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream ss(line);
  std::string t;
  while (ss >> t) toks.push_back(std::move(t));
  return toks;
}

std::vector<std::string> SplitN(LineReader& r, const std::string& line, std::size_t n) {
  std::vector<std::string> toks = Split(line);
  if (toks.size() != n)
    r.fail("expected " + std::to_string(n) + " fields, got " +
           std::to_string(toks.size()));
  return toks;
}

// ---------------------------------------------------------------- checksums
// Every durable broker artifact is checked with CRC-32C, spelled as eight
// lowercase hex digits.  A journal record line ends in the CRC of the bytes
// before its last space.  Snapshots and manifests end in the trailer line
// "crc32c <hex> <bytes>": the CRC and length of every byte before it,
// header included.

std::string CrcHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::uint32_t crc = Crc32c(bytes.data(), bytes.size());
  std::string hex(8, '0');
  for (std::size_t i = 8; i-- > 0; crc >>= 4) hex[i] = kDigits[crc & 0xFu];
  return hex;
}

std::string TrailerFor(std::string_view body) {
  return "crc32c " + CrcHex(body) + ' ' + std::to_string(body.size());
}

void WriteChecksummed(std::ostream& os, const std::string& body) {
  os << body << TrailerFor(body) << '\n';
}

// Reads all of `is`, requires its first line to be `header` and its final
// line to be the trailer of everything before it, and returns the bytes
// before the trailer.  This runs before any record is parsed, so damage
// anywhere (a torn tail included: it loses the trailer) fails here.
std::string ReadChecksummed(std::istream& is, const std::string& header) {
  std::string text{std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>()};
  const auto fail = [&text](std::size_t at, const std::string& what) {
    const auto line =
        1 + std::count(text.begin(),
                       text.begin() + static_cast<std::ptrdiff_t>(at), '\n');
    throw std::runtime_error("parse error at line " + std::to_string(line) +
                             ": " + what);
  };
  const std::string first = text.substr(0, text.find('\n'));
  if (first != header)
    fail(0, "expected '" + header + "', got '" + first + "'");
  if (text.back() != '\n')
    fail(text.size(), "unterminated final line (torn write, no trailer)");
  const std::size_t start = text.rfind('\n', text.size() - 2) + 1;
  const std::string trailer = text.substr(start, text.size() - start - 1);
  if (trailer.rfind("crc32c ", 0) != 0)
    fail(start, "missing crc32c trailer (truncated file?)");
  const std::string want = TrailerFor(std::string_view(text).substr(0, start));
  if (trailer != want)
    fail(start, "checksum mismatch: trailer '" + trailer +
                    "', content hashes to '" + want + "'");
  text.resize(start);
  return text;
}

}  // namespace

// ------------------------------------------------------------------ Graph

void WriteGraph(std::ostream& os, const Graph& g) {
  os << "pubsub-graph v1\n";
  os << "nodes " << g.num_nodes() << "\n";
  os << "edges " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) {
    os << e.u << ' ' << e.v << ' ';
    WriteDouble(os, e.cost);
    os << '\n';
  }
}

namespace {

// The pubsub-graph grammar, read from `r` wherever the graph sits (alone,
// or embedded in a transit-stub file), so errors carry the file's own line
// numbers.  Counts and endpoints are range-checked as longs, before any
// narrowing to int.
Graph ParseGraph(LineReader& r) {
  r.expect(r.next(), "pubsub-graph v1");
  const auto nodes_line = SplitN(r, r.next(), 2);
  if (nodes_line[0] != "nodes") r.fail("expected 'nodes'");
  const long n = ParseLong(r, nodes_line[1]);
  if (n < 0 || n > std::numeric_limits<int>::max())
    r.fail("node count out of range");
  const auto edges_line = SplitN(r, r.next(), 2);
  if (edges_line[0] != "edges") r.fail("expected 'edges'");
  const long m = ParseLong(r, edges_line[1]);

  Graph g(static_cast<int>(n));
  for (long i = 0; i < m; ++i) {
    const auto toks = SplitN(r, r.next(), 3);
    const long u = ParseLong(r, toks[0]);
    const long v = ParseLong(r, toks[1]);
    const double cost = ParseDouble(r, toks[2]);
    if (u < 0 || u >= n || v < 0 || v >= n) r.fail("edge endpoint out of range");
    try {
      g.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v), cost);
    } catch (const std::invalid_argument& e) {
      r.fail(e.what());  // a self-loop or a non-positive cost
    }
  }
  return g;
}

}  // namespace

Graph ReadGraph(std::istream& is) {
  LineReader r(is);
  return ParseGraph(r);
}

// ----------------------------------------------------------- TransitStub

void WriteTransitStub(std::ostream& os, const TransitStubNetwork& net) {
  os << "pubsub-transit-stub v1\n";
  WriteGraph(os, net.graph);
  os << "stubs " << net.num_stubs << "\n";
  os << "transit " << net.transit_nodes.size() << "\n";
  for (const NodeId v : net.transit_nodes) os << v << '\n';
  os << "node-meta " << net.stub_of_node.size() << "\n";
  for (std::size_t v = 0; v < net.stub_of_node.size(); ++v)
    os << net.stub_of_node[v] << ' ' << net.block_of_node[v] << '\n';
  os << "block-of-stub " << net.block_of_stub.size() << "\n";
  for (const int b : net.block_of_stub) os << b << '\n';
  os << "stub-members " << net.stub_members.size() << "\n";
  for (const auto& members : net.stub_members) {
    os << members.size();
    for (const NodeId v : members) os << ' ' << v;
    os << '\n';
  }
}

TransitStubNetwork ReadTransitStub(std::istream& is) {
  LineReader r(is);
  r.expect(r.next(), "pubsub-transit-stub v1");
  TransitStubNetwork net;
  net.graph = ParseGraph(r);
  const int n = net.graph.num_nodes();

  // The value token of a "<key> <value>" line, after checking the key.
  const auto value_of = [&r](const char* key) {
    std::vector<std::string> toks = SplitN(r, r.next(), 2);
    if (toks[0] != key) r.fail(std::string("expected '") + key + "'");
    return toks[1];
  };
  net.num_stubs = ParseInt(r, value_of("stubs"), 0, kIntMax, "stub count");
  const long transit = ParseLong(r, value_of("transit"));
  for (long i = 0; i < transit; ++i) {
    const long v = ParseLong(r, SplitN(r, r.next(), 1)[0]);
    if (v < 0 || v >= n) r.fail("transit node out of range");
    net.transit_nodes.push_back(static_cast<NodeId>(v));
  }
  const long meta = ParseLong(r, value_of("node-meta"));
  if (meta != n) r.fail("node-meta count mismatch");
  for (long i = 0; i < meta; ++i) {
    const auto toks = SplitN(r, r.next(), 2);
    net.stub_of_node.push_back(
        ParseInt(r, toks[0], kIntMin, kIntMax, "stub"));
    net.block_of_node.push_back(
        ParseInt(r, toks[1], kIntMin, kIntMax, "block"));
  }
  const long blocks = ParseLong(r, value_of("block-of-stub"));
  if (blocks != net.num_stubs) r.fail("block-of-stub count mismatch");
  for (long i = 0; i < blocks; ++i)
    net.block_of_stub.push_back(
        ParseInt(r, SplitN(r, r.next(), 1)[0], kIntMin, kIntMax, "block"));
  const long stubs = ParseLong(r, value_of("stub-members"));
  if (stubs != net.num_stubs) r.fail("stub-members count mismatch");
  for (long s = 0; s < stubs; ++s) {
    const auto toks = Split(r.next());
    if (toks.empty()) r.fail("empty stub-members line");
    const long count = ParseLong(r, toks[0]);
    if (static_cast<long>(toks.size()) != count + 1) r.fail("stub member count mismatch");
    std::vector<NodeId> members;
    for (long i = 1; i <= count; ++i) {
      const long v = ParseLong(r, toks[static_cast<std::size_t>(i)]);
      if (v < 0 || v >= n) r.fail("stub member out of range");
      members.push_back(static_cast<NodeId>(v));
    }
    net.stub_members.push_back(std::move(members));
  }
  return net;
}

// --------------------------------------------------------------- Workload

void WriteWorkload(std::ostream& os, const Workload& wl) {
  os << "pubsub-workload v1\n";
  os << "dims " << wl.space.dims() << "\n";
  for (std::size_t d = 0; d < wl.space.dims(); ++d)
    os << wl.space.dim(d).name << ' ' << wl.space.dim(d).domain_size << '\n';
  os << "subscribers " << wl.subscribers.size() << "\n";
  for (const Subscriber& s : wl.subscribers) {
    os << s.node;
    for (const Interval& iv : s.interest.intervals()) {
      os << ' ';
      WriteDouble(os, iv.lo());
      os << ' ';
      WriteDouble(os, iv.hi());
    }
    os << '\n';
  }
}

std::uint64_t DigestSpace(std::uint64_t h, const EventSpace& space) {
  h = DigestWord(h, space.dims());
  for (std::size_t d = 0; d < space.dims(); ++d) {
    const std::string& name = space.dim(d).name;
    h = DigestWord(h, name.size());
    for (const unsigned char c : name) h = DigestWord(h, c);
    h = DigestWord(h, static_cast<std::uint64_t>(space.dim(d).domain_size));
  }
  return h;
}

std::uint64_t DigestSubscriber(std::uint64_t h, const Subscriber& s) {
  h = DigestWord(h, static_cast<std::uint64_t>(s.node));
  for (const Interval& iv : s.interest.intervals()) {
    h = DigestWord(h, std::bit_cast<std::uint64_t>(iv.lo()));
    h = DigestWord(h, std::bit_cast<std::uint64_t>(iv.hi()));
  }
  return h;
}

Workload ReadWorkload(std::istream& is) {
  LineReader r(is);
  r.expect(r.next(), "pubsub-workload v1");
  const auto dims_line = SplitN(r, r.next(), 2);
  if (dims_line[0] != "dims") r.fail("expected 'dims'");
  const long dims = ParseLong(r, dims_line[1]);
  if (dims <= 0) r.fail("non-positive dimension count");

  std::vector<DimensionSpec> specs;
  for (long d = 0; d < dims; ++d) {
    const auto toks = SplitN(r, r.next(), 2);
    DimensionSpec spec;
    spec.name = toks[0];
    spec.domain_size = ParseInt(r, toks[1], 1, kIntMax, "domain size");
    specs.push_back(std::move(spec));
  }

  Workload wl;
  wl.space = EventSpace(std::move(specs));

  const auto subs_line = SplitN(r, r.next(), 2);
  if (subs_line[0] != "subscribers") r.fail("expected 'subscribers'");
  const long count = ParseLong(r, subs_line[1]);
  for (long i = 0; i < count; ++i) {
    const auto toks = SplitN(r, r.next(), 1 + 2 * static_cast<std::size_t>(dims));
    Subscriber s;
    s.node = ParseInt(r, toks[0], 0, kIntMax, "node id");
    std::vector<Interval> ivals;
    for (long d = 0; d < dims; ++d) {
      const double lo = ParseDouble(r, toks[1 + 2 * static_cast<std::size_t>(d)]);
      const double hi = ParseDouble(r, toks[2 + 2 * static_cast<std::size_t>(d)]);
      ivals.emplace_back(lo, hi);
    }
    s.interest = Rect(std::move(ivals));
    wl.subscribers.push_back(std::move(s));
  }
  return wl;
}

// ------------------------------------------------------------- Clustering

void WriteClustering(std::ostream& os, const ClusteringFile& c) {
  os << "pubsub-clustering v1\n";
  os << "groups " << c.num_groups << "\n";
  os << "cells " << c.cells_fed << "\n";
  for (const int g : c.assignment) os << g << '\n';
}

ClusteringFile ReadClustering(std::istream& is) {
  LineReader r(is);
  r.expect(r.next(), "pubsub-clustering v1");
  ClusteringFile c;
  const auto groups_line = SplitN(r, r.next(), 2);
  if (groups_line[0] != "groups") r.fail("expected 'groups'");
  c.num_groups = ParseInt(r, groups_line[1], 0, kIntMax, "group count");
  const auto cells_line = SplitN(r, r.next(), 2);
  if (cells_line[0] != "cells") r.fail("expected 'cells'");
  const long cells = ParseLong(r, cells_line[1]);
  c.cells_fed = static_cast<std::size_t>(cells);
  for (long i = 0; i < cells; ++i) {
    c.assignment.push_back(ParseInt(r, SplitN(r, r.next(), 1)[0], -1,
                                    c.num_groups - 1L, "group id"));
  }
  return c;
}

// ----------------------------------------------------------------- broker

namespace {

// Pointers to the stats fields in snapshot `stats` line order.  Keep in
// sync with BrokerStats; the format version guards the field list.
std::vector<std::uint64_t*> StatFields(BrokerStats& s) {
  return {&s.commands_applied,   &s.subscribes,
          &s.unsubscribes,       &s.updates,
          &s.publishes,          &s.events_matched,
          &s.multicast_events,   &s.unicast_events,
          &s.messages_emitted,   &s.wasted_deliveries,
          &s.refreshes,          &s.full_rebuilds,
          &s.journal_bytes,      &s.snapshot_bytes,
          &s.replayed_records,   &s.journal_flush_failures,
          &s.journal_flush_retries, &s.degraded_entries,
          &s.mutations_rejected};
}

std::uint64_t ParseCount(LineReader& r, const std::string& tok) {
  const long v = ParseLong(r, tok);
  if (v < 0) r.fail("negative counter '" + tok + "'");
  return static_cast<std::uint64_t>(v);
}

void WriteRect(std::ostream& os, const Rect& rect) {
  for (const Interval& iv : rect.intervals()) {
    os << ' ';
    WriteDouble(os, iv.lo());
    os << ' ';
    WriteDouble(os, iv.hi());
  }
}

Rect ParseRect(LineReader& r, const std::vector<std::string>& toks,
               std::size_t offset, std::size_t dims) {
  std::vector<Interval> ivals;
  ivals.reserve(dims);
  for (std::size_t d = 0; d < dims; ++d)
    ivals.emplace_back(ParseDouble(r, toks[offset + 2 * d]),
                       ParseDouble(r, toks[offset + 2 * d + 1]));
  return Rect(std::move(ivals));
}

constexpr char kSnapshotHeader[] = "pubsub-broker-snapshot v5";

}  // namespace

void WriteBrokerSnapshot(std::ostream& os, const BrokerSnapshot& snap) {
  std::ostringstream body;
  body << kSnapshotHeader << '\n';
  body << "seq " << snap.seq << '\n';
  body << "churn-since-full-build " << snap.churn_since_full_build << '\n';
  BrokerStats stats_copy = snap.stats;
  body << "stats";
  for (const std::uint64_t* field : StatFields(stats_copy))
    body << ' ' << *field;
  body << '\n';
  body << "queue " << snap.queue_state.size() << '\n';
  for (const double v : snap.queue_state) {
    WriteDouble(body, v);
    body << '\n';
  }
  WriteWorkload(body, snap.workload);
  ClusteringFile c;
  c.num_groups = snap.num_groups;
  c.cells_fed = static_cast<std::size_t>(snap.cells_fed);
  c.assignment = snap.assignment;
  WriteClustering(body, c);
  WriteChecksummed(os, body.str());
}

BrokerSnapshot ReadBrokerSnapshot(std::istream& file) {
  std::istringstream is(ReadChecksummed(file, kSnapshotHeader));
  BrokerSnapshot snap;
  {
    LineReader r(is);
    r.expect(r.next(), kSnapshotHeader);
    const auto seq_line = SplitN(r, r.next(), 2);
    if (seq_line[0] != "seq") r.fail("expected 'seq'");
    snap.seq = ParseCount(r, seq_line[1]);
    const auto churn_line = SplitN(r, r.next(), 2);
    if (churn_line[0] != "churn-since-full-build")
      r.fail("expected 'churn-since-full-build'");
    snap.churn_since_full_build = ParseCount(r, churn_line[1]);

    const std::vector<std::uint64_t*> fields = StatFields(snap.stats);
    const auto stats = SplitN(r, r.next(), 1 + fields.size());
    if (stats[0] != "stats") r.fail("expected 'stats'");
    for (std::size_t i = 0; i < fields.size(); ++i)
      *fields[i] = ParseCount(r, stats[i + 1]);

    const auto queue_line = SplitN(r, r.next(), 2);
    if (queue_line[0] != "queue") r.fail("expected 'queue'");
    const long queue = ParseLong(r, queue_line[1]);
    if (queue < 0) r.fail("negative queue size");
    snap.queue_state.reserve(static_cast<std::size_t>(queue));
    for (long i2 = 0; i2 < queue; ++i2) {
      const double v = ParseDouble(r, SplitN(r, r.next(), 1)[0]);
      if (!std::isfinite(v) || v < 0.0) r.fail("bad queue timestamp");
      snap.queue_state.push_back(v);
    }
  }
  // Embedded records carry their own headers; their readers consume exactly
  // their lines, so parsing continues on the same stream.
  snap.workload = ReadWorkload(is);
  const ClusteringFile c = ReadClustering(is);
  snap.num_groups = c.num_groups;
  snap.cells_fed = c.cells_fed;
  snap.assignment = c.assignment;
  return snap;
}

namespace {
constexpr char kJournalHeader[] = "pubsub-journal v2";
}  // namespace

void WriteJournalHeader(std::ostream& os, std::size_t dims) {
  os << kJournalHeader << '\n';
  os << "dims " << dims << '\n';
}

void WriteJournalRecord(std::ostream& os, const JournalRecord& rec,
                        std::size_t dims) {
  // Formatted into a per-thread buffer first, so the CRC covers exactly the
  // bytes written, the record reaches `os` in one write (a rejected command
  // writes nothing), and the publish path stays allocation-free once the
  // buffer has grown.
  thread_local StringStream line;
  line.reset();
  line << rec.seq << ' ';
  WriteDouble(line, rec.cmd.time_ms);
  switch (rec.cmd.type) {
    case BrokerCommandType::kSubscribe:
      if (rec.cmd.interest.dims() != dims)
        throw std::invalid_argument("WriteJournalRecord: interest dims mismatch");
      line << " sub " << rec.cmd.node;
      WriteRect(line, rec.cmd.interest);
      break;
    case BrokerCommandType::kUnsubscribe:
      line << " unsub " << rec.cmd.subscriber;
      break;
    case BrokerCommandType::kUpdate:
      if (rec.cmd.interest.dims() != dims)
        throw std::invalid_argument("WriteJournalRecord: interest dims mismatch");
      line << " upd " << rec.cmd.subscriber;
      WriteRect(line, rec.cmd.interest);
      break;
    case BrokerCommandType::kPublish:
      if (rec.cmd.point.size() != dims)
        throw std::invalid_argument("WriteJournalRecord: point dims mismatch");
      line << " pub " << rec.cmd.node;
      for (const double x : rec.cmd.point) {
        line << ' ';
        WriteDouble(line, x);
      }
      break;
  }
  const std::string crc = CrcHex(line.str());
  line << ' ' << crc << '\n';
  os.write(line.str().data(), static_cast<std::streamsize>(line.str().size()));
}

const char* JournalErrorCodeName(JournalErrorCode code) {
  switch (code) {
    case JournalErrorCode::kBadHeader: return "bad-header";
    case JournalErrorCode::kMalformedRecord: return "malformed-record";
    case JournalErrorCode::kTornTail: return "torn-tail";
    case JournalErrorCode::kSeqGap: return "seq-gap";
  }
  return "unknown";
}

JournalError::JournalError(JournalErrorCode code, int line_no,
                           const std::string& what)
    : std::runtime_error("journal error [" +
                         std::string(JournalErrorCodeName(code)) +
                         "] at line " + std::to_string(line_no) + ": " + what),
      code_(code),
      line_no_(line_no) {}

namespace {

// One record line, seq checks excluded (the caller owns the gap/torn-tail
// classification).  The CRC field is checked before anything is parsed.
// Throws plain runtime_error via r.fail on damage.
JournalRecord ParseJournalRecordLine(LineReader& r, const std::string& line,
                                     std::size_t dims) {
  const std::size_t space = line.rfind(' ');
  if (space == std::string::npos) r.fail("journal record has no crc32c field");
  const std::string body = line.substr(0, space);
  const std::string want = CrcHex(body);
  if (line.compare(space + 1, std::string::npos, want) != 0)
    r.fail("journal record checksum mismatch: field '" +
           line.substr(space + 1) + "', record hashes to '" + want + "'");
  const std::vector<std::string> toks = Split(body);
  if (toks.size() < 4) r.fail("truncated journal record");
  JournalRecord rec;
  rec.seq = ParseCount(r, toks[0]);
  rec.cmd.time_ms = ParseDouble(r, toks[1]);
  if (!std::isfinite(rec.cmd.time_ms) || rec.cmd.time_ms < 0.0)
    r.fail("bad command timestamp");

  const std::string& type = toks[2];
  const std::size_t rect_fields = 2 * dims;
  if (type == "sub") {
    if (toks.size() != 4 + rect_fields) r.fail("bad subscribe record");
    rec.cmd.type = BrokerCommandType::kSubscribe;
    rec.cmd.node = ParseInt(r, toks[3], 0, kIntMax, "node id");
    rec.cmd.interest = ParseRect(r, toks, 4, dims);
  } else if (type == "unsub") {
    if (toks.size() != 4) r.fail("bad unsubscribe record");
    rec.cmd.type = BrokerCommandType::kUnsubscribe;
    rec.cmd.subscriber = ParseInt(r, toks[3], 0, kIntMax, "subscriber id");
  } else if (type == "upd") {
    if (toks.size() != 4 + rect_fields) r.fail("bad update record");
    rec.cmd.type = BrokerCommandType::kUpdate;
    rec.cmd.subscriber = ParseInt(r, toks[3], 0, kIntMax, "subscriber id");
    rec.cmd.interest = ParseRect(r, toks, 4, dims);
  } else if (type == "pub") {
    if (toks.size() != 4 + dims) r.fail("bad publish record");
    rec.cmd.type = BrokerCommandType::kPublish;
    rec.cmd.node = ParseInt(r, toks[3], 0, kIntMax, "origin node");
    rec.cmd.point.reserve(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double x = ParseDouble(r, toks[4 + d]);
      if (!EventSpace::is_lattice_coord(x))
        r.fail("event coordinate is not a lattice value (a finite integer) '" +
               toks[4 + d] + "'");
      rec.cmd.point.push_back(x);
    }
  } else {
    r.fail("unknown journal record type '" + type + "'");
  }
  return rec;
}

JournalFile ParseJournal(std::istream& is, bool lenient, bool* torn_tail,
                         std::string* tail_error) {
  LineReader r(is, /*skip_comments=*/false);
  JournalFile jf;
  try {
    r.expect(r.next(), kJournalHeader);
    const auto dims_line = SplitN(r, r.next(), 2);
    if (dims_line[0] != "dims") r.fail("expected 'dims'");
    const long dims = ParseLong(r, dims_line[1]);
    if (dims <= 0) r.fail("non-positive dimension count");
    jf.dims = static_cast<std::size_t>(dims);
  } catch (const std::runtime_error& e) {
    throw JournalError(JournalErrorCode::kBadHeader, r.line_no(), e.what());
  }

  std::string line;
  while (r.next_or_eof(&line)) {
    try {
      JournalRecord rec = ParseJournalRecordLine(r, line, jf.dims);
      if (rec.seq == 0)
        throw JournalError(JournalErrorCode::kSeqGap, r.line_no(),
                           "journal sequence numbers start at 1");
      if (!jf.records.empty() && rec.seq != jf.records.back().seq + 1)
        throw JournalError(
            JournalErrorCode::kSeqGap, r.line_no(),
            "journal sequence gap: expected " +
                std::to_string(jf.records.back().seq + 1) + ", got " +
                std::to_string(rec.seq));
      jf.records.push_back(std::move(rec));
    } catch (const std::runtime_error& e) {
      // Records are serialized newline-included and appended in one write,
      // so an unterminated final line is a torn append — recoverable by
      // dropping it.  Damage on a terminated line is corruption (or, for a
      // terminated seq anomaly, lost records) and is never dropped.
      if (!r.last_line_terminated()) {
        if (lenient) {
          *torn_tail = true;
          *tail_error = e.what();
          return jf;
        }
        throw JournalError(JournalErrorCode::kTornTail, r.line_no(), e.what());
      }
      if (dynamic_cast<const JournalError*>(&e) != nullptr) throw;
      throw JournalError(JournalErrorCode::kMalformedRecord, r.line_no(),
                         e.what());
    }
  }
  // The final line parsed — but without its newline it may be the prefix
  // of a longer record that happens to parse (e.g. a publish missing the
  // last digits of a coordinate).  Crash-mid-append means the command was
  // never applied, so dropping it is always correct.
  if (!r.last_line_terminated() && !jf.records.empty()) {
    if (!lenient)
      throw JournalError(JournalErrorCode::kTornTail, r.line_no(),
                         "unterminated final record (crash mid-append)");
    *torn_tail = true;
    *tail_error = "unterminated final record (crash mid-append)";
    jf.records.pop_back();
  }
  return jf;
}

}  // namespace

JournalFile ReadJournal(std::istream& is) {
  bool torn = false;
  std::string err;
  return ParseJournal(is, /*lenient=*/false, &torn, &err);
}

JournalReadResult ReadJournalLenient(std::istream& is) {
  JournalReadResult result;
  result.journal =
      ParseJournal(is, /*lenient=*/true, &result.torn_tail, &result.tail_error);
  return result;
}

// ---------------------------------------------------------- fleet manifests

namespace {
constexpr char kManifestHeader[] = "pubsub-fleet-manifest v3";
}  // namespace

void WriteFleetManifest(std::ostream& os, const FleetManifest& m) {
  std::ostringstream body;
  body << kManifestHeader << '\n';
  body << "seq " << m.seq << '\n';
  body << "chain " << m.match_chain << '\n';
  body << "shards " << m.shard_seqs.size() << '\n';
  for (std::size_t k = 0; k < m.shard_seqs.size(); ++k)
    body << "shard " << k << ' ' << m.shard_seqs[k] << '\n';
  WriteChecksummed(os, body.str());
}

FleetManifest ReadFleetManifest(std::istream& file) {
  std::istringstream is(ReadChecksummed(file, kManifestHeader));
  LineReader r(is);
  r.expect(r.next(), kManifestHeader);
  FleetManifest m;
  {
    const auto toks = SplitN(r, r.next(), 2);
    if (toks[0] != "seq") r.fail("expected 'seq'");
    m.seq = ParseCount(r, toks[1]);
  }
  {
    const auto toks = SplitN(r, r.next(), 2);
    if (toks[0] != "chain") r.fail("expected 'chain'");
    // The chain is a full 64-bit digest; stoul covers the unsigned range
    // stol cannot.
    try {
      std::size_t pos = 0;
      m.match_chain = std::stoull(toks[1], &pos);
      if (pos != toks[1].size()) r.fail("trailing characters in chain");
    } catch (const std::exception&) {
      r.fail("bad chain value '" + toks[1] + "'");
    }
  }
  long num_shards = 0;
  {
    const auto toks = SplitN(r, r.next(), 2);
    if (toks[0] != "shards") r.fail("expected 'shards'");
    num_shards = ParseLong(r, toks[1]);
    if (num_shards < 1) r.fail("fleet needs at least one shard");
  }
  for (long k = 0; k < num_shards; ++k) {
    const auto toks = SplitN(r, r.next(), 3);
    if (toks[0] != "shard") r.fail("expected 'shard'");
    if (ParseLong(r, toks[1]) != k) r.fail("shard entries out of order");
    m.shard_seqs.push_back(ParseCount(r, toks[2]));
  }
  return m;
}

std::string FleetManifestPath(const std::string& base) {
  return base + ".manifest";
}
std::string FleetJournalPath(const std::string& base) {
  return base + ".journal";
}
std::string FleetShardSnapshotPath(const std::string& base, std::size_t shard) {
  return base + ".shard" + std::to_string(shard) + ".snap";
}
std::string FleetShardJournalPath(const std::string& base, std::size_t shard) {
  return base + ".shard" + std::to_string(shard) + ".journal";
}

// ---------------------------------------------------------------- metrics

namespace {

// "%.17g" everywhere in the metrics writers: exact round-trip and, more
// importantly for the --threads stability contract, one fixed spelling per
// double value.
std::string MetricDouble(double x) {
  if (x == std::numeric_limits<double>::infinity()) return "+Inf";
  if (x == -std::numeric_limits<double>::infinity()) return "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// Splits "name{a=\"b\"}" into base name and inner label list ("" if none).
std::pair<std::string, std::string> SplitLabels(const std::string& full) {
  const std::size_t brace = full.find('{');
  if (brace == std::string::npos || full.back() != '}')
    return {full, std::string()};
  return {full.substr(0, brace),
          full.substr(brace + 1, full.size() - brace - 2)};
}

// JSON has no literal for infinities; quote them.
std::string JsonNumber(double x) {
  if (!std::isfinite(x)) return "\"" + MetricDouble(x) + "\"";
  return MetricDouble(x);
}

std::string WithLabel(const std::string& labels, const std::string& extra) {
  if (labels.empty()) return "{" + extra + "}";
  return "{" + labels + "," + extra + "}";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

void WriteMetricsText(std::ostream& os, const MetricsSnapshot& snap) {
  std::string last_base;
  for (const MetricSample& s : snap.samples) {
    const auto [base, labels] = SplitLabels(s.info.name);
    if (base != last_base) {
      if (!s.info.help.empty())
        os << "# HELP " << base << ' ' << s.info.help << '\n';
      os << "# TYPE " << base << ' ' << KindName(s.info.kind) << '\n';
      last_base = base;
    }
    switch (s.info.kind) {
      case MetricKind::kCounter:
        os << s.info.name << ' ' << s.counter_value << '\n';
        break;
      case MetricKind::kGauge:
        os << s.info.name << ' ' << MetricDouble(s.gauge_value) << '\n';
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < s.hist_buckets.size(); ++b) {
          cum += s.hist_buckets[b];
          const std::string le = b < s.hist_bounds.size()
                                     ? MetricDouble(s.hist_bounds[b])
                                     : "+Inf";
          os << base << "_bucket"
             << WithLabel(labels, "le=\"" + le + "\"") << ' ' << cum << '\n';
        }
        os << base << "_sum" << (labels.empty() ? "" : "{" + labels + "}")
           << ' ' << MetricDouble(s.hist_sum) << '\n';
        os << base << "_count" << (labels.empty() ? "" : "{" + labels + "}")
           << ' ' << s.hist_count << '\n';
        break;
      }
    }
  }
}

void WriteMetricsJson(std::ostream& os, const MetricsSnapshot& snap) {
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : snap.samples) {
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << JsonEscape(s.info.name) << "\",\"kind\":\""
       << KindName(s.info.kind) << "\",\"stability\":\""
       << (s.info.stability == MetricStability::kDeterministic ? "deterministic"
                                                               : "runtime")
       << '"';
    switch (s.info.kind) {
      case MetricKind::kCounter:
        os << ",\"value\":" << s.counter_value;
        break;
      case MetricKind::kGauge:
        os << ",\"value\":" << JsonNumber(s.gauge_value);
        break;
      case MetricKind::kHistogram: {
        os << ",\"count\":" << s.hist_count
           << ",\"sum\":" << JsonNumber(s.hist_sum) << ",\"buckets\":[";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < s.hist_buckets.size(); ++b) {
          cum += s.hist_buckets[b];
          if (b > 0) os << ',';
          os << "{\"le\":\""
             << (b < s.hist_bounds.size() ? MetricDouble(s.hist_bounds[b])
                                          : "+Inf")
             << "\",\"count\":" << cum << '}';
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "\n]}\n";
}

void WriteTraceJson(std::ostream& os, std::span<const TraceSpan> spans,
                    std::uint64_t recorded, std::uint64_t dropped) {
  os << "{\"recorded\":" << recorded << ",\"dropped\":" << dropped
     << ",\"spans\":[";
  bool first = true;
  for (const TraceSpan& s : spans) {
    if (!first) os << ',';
    first = false;
    // One span object per line so a test (or grep) can reassemble a trace
    // tree without a JSON parser.
    os << "\n{\"trace_id\":" << s.trace_id << ",\"seq\":" << s.seq
       << ",\"shard\":" << s.shard << ",\"stage\":\"" << StageName(s.stage)
       << "\",\"start_ms\":" << JsonNumber(s.start_ms)
       << ",\"duration_ms\":" << JsonNumber(s.duration_ms) << '}';
  }
  os << "\n]}\n";
}

void WriteTraceJson(std::ostream& os, const TraceRing& ring) {
  const std::vector<TraceSpan> spans = ring.spans();
  WriteTraceJson(os, spans, ring.recorded(), ring.dropped());
}

// ------------------------------------------------------------------ files

void SaveToFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  os << content;
  if (!os) throw std::runtime_error("write failed: " + path);
}

void SaveToFileAtomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("cannot open for writing: " + tmp);
    os << content;
    os.flush();
    if (!os) throw std::runtime_error("write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed: " + tmp + " -> " + path);
  }
}

std::string LoadFromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

}  // namespace pubsub
