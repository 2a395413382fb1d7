// Serve-path benchmark: drives BrokerFleet::apply closed-loop (one client,
// no think time) over a fixed corpus of serve-replay command streams and
// measures what a client of the fleet sees; a separate traced run breaks
// the same work down by layer, from the fleet's own spans plus mirrors of
// the calls the fleet does not span.  See README.md for the workloads and
// the metric definitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "broker/types.h"
#include "serve/fleet.h"
#include "sim/scenario.h"

namespace servebench {

// One benchmark workload: the fleet shape plus the corpus it replays.
struct WorkloadSpec {
  std::string name;
  std::size_t shards = 1;
  int subscribers = 1000;  // MakeStockScenario(subscribers, kOne, 91)
  // Corpus: BuildChaosSchedule streams for stream seeds 1..streams, each
  // `events` publishes long with churn every kChurnEvery-th event.
  std::size_t streams = 1;
  std::size_t events = 600;
  bool refresh = true;  // false: churn_fraction = waste_ratio = 0
};

// Shared by every workload: the bench_fleet defaults and serve-replay's
// churn cadence.
inline constexpr std::size_t kGroups = 16;
inline constexpr std::size_t kCells = 600;
inline constexpr std::size_t kChurnEvery = 4;

// The benchmark's workloads, in the order README.md describes them.
const std::vector<WorkloadSpec>& Workloads();
// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Lanes every workload runs with (ThreadPool::global()).
inline constexpr int kThreads = 2;

// Everything a run replays, built before any timing.
struct Corpus {
  WorkloadSpec spec;
  pubsub::Scenario scenario;
  pubsub::FleetOptions fleet;
  // Streams in replay order; stream_seeds[i] is the seed streams[i] was
  // drawn from.
  std::vector<std::vector<pubsub::JournalRecord>> streams;
  std::vector<std::uint64_t> stream_seeds;
};

// The corpus is the same for every seed; `seed` fixes the order in which a
// pass replays its streams (a seeded shuffle).  Stream cost is heavy-tailed
// in the stream seed (README.md, "Why a fixed corpus"), so drawing the
// streams themselves from the seed would make runs incomparable.
Corpus MakeCorpus(const WorkloadSpec& spec, std::uint64_t seed);

// Seeded permutation of [0, n): the replay order MakeCorpus uses.
std::vector<std::size_t> ReplayOrder(std::size_t n, std::uint64_t seed);

// One reported figure.  `samples` is how many measurements the value
// summarizes; a value that is not reportable (too few samples beyond a
// tail percentile) is printed as n/a and left out of the result line.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
  bool reportable = true;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  // fleet commands attempted
  std::uint64_t failed = 0;     // threw, or belong to a run that failed its check
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // first failures, for the report
  std::size_t passes = 0;          // complete passes over the corpus
};

// The number of passes fixes how many samples every timing figure pools,
// so it must not depend on how fast the host happens to be.  A run makes
// PassesFor(seconds) passes: the corpora are sized so that one pass takes
// about kSecondsPerPass on the 4-thread host they were tuned on.
inline constexpr double kSecondsPerPass = 4.0;
inline constexpr std::size_t kMinPasses = 3;
std::size_t PassesFor(double seconds);

// Untraced run: PassesFor(seconds) passes over the corpus.  Reports the
// end-to-end metrics.
RunResult RunServe(const Corpus& corpus, double seconds);

struct TraceOptions {
  double seconds = 10.0;
  // Where the last traced stream's spans are written (empty: not written).
  std::string trace_out;
  // Test hook: give the first refresh mirror one churn command its shard
  // never saw, so the mirror check must fail the run.
  bool diverge_mirror = false;
};

// Traced run: each stream is replayed untraced, then traced, in passes
// that each cost about four untraced passes (at least one); reports the
// per-layer metrics, trace.overhead_ratio and trace.unattributed_share.
// Any mirror that disagrees with the shard it mirrors fails the run.
RunResult RunTraced(const Corpus& corpus, const TraceOptions& options);

// Names the result line carries: BENCHMARK.json's end_to_end metrics for
// the untraced run, its per_layer metrics for the traced run.  Other
// metrics are printed in the report only: those that read 0 on some
// workload by construction (stall_p50_ms and error_ratio; the straggler
// time, which is 0 on one shard) and the supporting figures.
const std::vector<std::string>& EndToEndNames();
const std::vector<std::string>& PerLayerNames();

// Host provenance recorded with every result.
struct HostInfo {
  unsigned hardware_threads = 0;
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
};
HostInfo Host();

// Wall time of a fixed reference loop (a dependent walk over an 8 MiB
// table, then an integer hash chain).  Its work never changes, so a
// change in its time between runs is host drift, not program change.
double ReferenceLoopMs();

// Process peak resident set size so far, in MB.
double PeakRssMb();

}  // namespace servebench
