// Text serialization for the library's artifacts.
//
// Enables the file-based pipeline of tools/pubsub_cli: generate a topology
// once, generate workloads against it, cluster, and evaluate — each stage a
// separate process exchanging human-readable, versioned files.
//
// Formats are line-oriented: a magic+version header, then counted records.
// Doubles round-trip exactly (max_digits10); unbounded interval ends are
// the tokens `-inf` / `inf`.  Readers validate counts and ranges and throw
// std::runtime_error with a line-number message on malformed input.
//
// The broker's durable artifacts (snapshot, journal, fleet manifest) are
// also checksummed with CRC-32C (io/crc32.h), and every check lives here:
// a journal record line ends in the CRC of the rest of the line, and a
// snapshot or manifest ends in a `crc32c <hex> <bytes>` trailer over every
// byte before it, verified before anything past the header is parsed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "broker/types.h"
#include "core/cluster_types.h"
#include "net/transit_stub.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/types.h"

namespace pubsub {

// ----------------------------------------------------------------- graphs
void WriteGraph(std::ostream& os, const Graph& g);
Graph ReadGraph(std::istream& is);

// Transit-stub networks: a WriteGraph record, then the stub/block
// bookkeeping.  The reader parses the embedded graph with ReadGraph's
// grammar, so its errors carry the transit-stub file's line numbers.
void WriteTransitStub(std::ostream& os, const TransitStubNetwork& net);
TransitStubNetwork ReadTransitStub(std::istream& is);

// -------------------------------------------------------------- workloads
void WriteWorkload(std::ostream& os, const Workload& wl);
Workload ReadWorkload(std::istream& is);

// State digests (Broker::state_digest and the fleet digest of
// serve/fleet.h) are a word-wise FNV-1a: one xor-multiply per 64-bit field,
// starting at kDigestBasis.
inline constexpr std::uint64_t kDigestBasis = 1469598103934665603ull;
inline std::uint64_t DigestWord(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ull;
}
// Fold the fields WriteWorkload prints into digest state `h`: DigestSpace
// the dimension names and domain sizes, DigestSubscriber one subscriber's
// node and interval bit patterns.  WriteWorkload prints doubles exactly
// (max_digits10), so any two tables it prints differently fold different
// words.  A table digest is DigestSpace, the subscriber count, then
// DigestSubscriber per row in id order.
std::uint64_t DigestSpace(std::uint64_t h, const EventSpace& space);
std::uint64_t DigestSubscriber(std::uint64_t h, const Subscriber& s);

// ------------------------------------------------------------- clusterings
// A grid clustering artifact: K plus the assignment of the grid's
// popularity-ranked hyper-cells (exactly the vector a clustering algorithm
// returns; cell identity is reproducible from the workload).
struct ClusteringFile {
  int num_groups = 0;
  std::size_t cells_fed = 0;
  Assignment assignment;
};

void WriteClustering(std::ostream& os, const ClusteringFile& c);
ClusteringFile ReadClustering(std::istream& is);

// ------------------------------------------------------- broker durability
// Snapshot: the recovery image of broker/broker.h, captured at a refresh
// boundary.  The format is v5: seq, counters and queue state, then the
// embedded workload and clustering records above, then the crc32c
// trailer.  It holds state, not indexes: recovery rebuilds the lattice
// index from the workload.  The reader rejects any other version (v4
// stored the broker's index too) as a bad header, and a missing or
// mismatched trailer (a torn or altered file) before parsing.
void WriteBrokerSnapshot(std::ostream& os, const BrokerSnapshot& snap);
BrokerSnapshot ReadBrokerSnapshot(std::istream& is);

// Write-ahead journal (v2): a header naming the event-space
// dimensionality, then one line per sequenced command, appendable as the
// broker runs.  Each record line ends in its own CRC-32C, so one record is
// one atomic, self-checking append.  ReadJournal validates the header and
// every CRC, and requires contiguous, strictly increasing sequence numbers;
// unlike the other formats, it skips no blank or '#' lines.
void WriteJournalHeader(std::ostream& os, std::size_t dims);
void WriteJournalRecord(std::ostream& os, const JournalRecord& rec,
                        std::size_t dims);

struct JournalFile {
  std::size_t dims = 0;
  std::vector<JournalRecord> records;
};

// Journal failures are not interchangeable: a torn tail is the expected
// artifact of a crash mid-append and recovery simply drops it, while a
// sequence gap or a damaged interior record means lost updates — the
// journal cannot be trusted and the operator must re-bootstrap from a
// newer snapshot (docs/OPERATIONS.md, "Damage matrix").
enum class JournalErrorCode {
  kBadHeader,        // magic/version/dims lines missing or wrong
  kMalformedRecord,  // a newline-terminated record is damaged (bad CRC)
  kTornTail,         // the final line lacks its newline: crash mid-append
  kSeqGap,           // sequence not contiguous from 1: lost records
};
const char* JournalErrorCodeName(JournalErrorCode code);

class JournalError : public std::runtime_error {
 public:
  JournalError(JournalErrorCode code, int line_no, const std::string& what);
  JournalErrorCode code() const { return code_; }
  int line_no() const { return line_no_; }

 private:
  JournalErrorCode code_;
  int line_no_;
};

// Strict read: any anomaly, torn tail included, throws JournalError with
// the code above.  Records are written newline-terminated in one append,
// so an unterminated final line is always a torn append — even when its
// prefix happens to parse as a complete record.
JournalFile ReadJournal(std::istream& is);

// Recovery read: a torn tail is dropped and reported instead of thrown
// (the crashed append never mutated state, so the truncated journal is the
// durable truth).  Gaps and interior damage still throw.
struct JournalReadResult {
  JournalFile journal;
  bool torn_tail = false;
  std::string tail_error;  // why the dropped tail line did not count
};
JournalReadResult ReadJournalLenient(std::istream& is);

// ---------------------------------------------------------- fleet durability
// Manifest of a sharded BrokerFleet checkpoint (src/serve/fleet.h): the
// fleet sequence number and match chain at capture, plus each shard
// broker's sequence number.  The id maps are not stored: the partition rule
// and each shard's slot count determine them.  The manifest plus one
// refresh-boundary snapshot and one journal per shard, plus the fleet-level
// journal tail, is the complete fleet recovery recipe.  The format is v3,
// checksummed by the same trailer as a snapshot; the reader rejects any
// other version (v2 stored the id maps too) as a bad header.
struct FleetManifest {
  std::uint64_t seq = 0;          // fleet seq at capture
  std::uint64_t match_chain = 0;  // rolling digest of merged interested sets
  std::vector<std::uint64_t> shard_seqs;  // shard broker seq at capture
};

void WriteFleetManifest(std::ostream& os, const FleetManifest& m);
FleetManifest ReadFleetManifest(std::istream& is);

// Canonical on-disk naming for `pubsub_cli serve --base=<base>` artifacts:
// <base>.manifest, <base>.journal (fleet-level command stream), and
// <base>.shard<k>.snap / <base>.shard<k>.journal per shard.
std::string FleetManifestPath(const std::string& base);
std::string FleetJournalPath(const std::string& base);
std::string FleetShardSnapshotPath(const std::string& base, std::size_t shard);
std::string FleetShardJournalPath(const std::string& base, std::size_t shard);

// ------------------------------------------------------------------ metrics
// Exposition for obs/metrics snapshots (telemetry tentpole).  Both writers
// are byte-stable: equal snapshots produce equal bytes, so a deterministic
// scrape (include_runtime = false) compares exactly across --threads runs.
//
// Text is the prometheus exposition format: HELP/TYPE per metric family,
// histograms as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.
// A label set embedded in a metric name ("m{stage=\"match\"}") is merged
// with the `le` label.  JSON is one object per metric with the same
// cumulative bucket counts.
void WriteMetricsText(std::ostream& os, const MetricsSnapshot& snap);
void WriteMetricsJson(std::ostream& os, const MetricsSnapshot& snap);

// Causal trace dump (fleet observability tentpole): every span carries its
// trace id + shard, so one dump from BrokerFleet::collect_spans holds the
// complete linked span tree per traced publish (fleet_fanout -> per-shard
// stages -> fleet_merge -> fleet_deliver).  One span object per line for
// parser-free reassembly.
void WriteTraceJson(std::ostream& os, std::span<const TraceSpan> spans,
                    std::uint64_t recorded, std::uint64_t dropped);
void WriteTraceJson(std::ostream& os, const TraceRing& ring);

// ------------------------------------------------------------ file helpers
void SaveToFile(const std::string& path, const std::string& content);
// Crash-safe replacement: writes `path`.tmp, flushes, then renames over
// `path`, so readers observe either the old or the new content — never a
// torn file.  Snapshot files must be replaced this way (docs/OPERATIONS.md).
void SaveToFileAtomic(const std::string& path, const std::string& content);
std::string LoadFromFile(const std::string& path);

}  // namespace pubsub
