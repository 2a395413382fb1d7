#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>

#include "broker/chaos.h"
#include "serve_bench.h"

namespace servebench {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  // Sizes are tuned so one pass over a corpus takes about kSecondsPerPass
  // on a 4-thread host (README.md, "Steadiness and host drift").
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(2);
    w[0].name = "refresh_1shard";
    w[0].streams = 4;
    w[0].events = 1200;
    w[1].name = "steady_1shard";
    w[1].subscribers = 5000;
    w[1].streams = 3;
    w[1].events = 20000;
    w[1].refresh = false;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<std::size_t> ReplayOrder(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[SplitMix64(state) % i]);
  return order;
}

Corpus MakeCorpus(const WorkloadSpec& spec, std::uint64_t seed) {
  Corpus c;
  c.spec = spec;
  c.scenario = pubsub::MakeStockScenario(
      spec.subscribers, pubsub::PublicationHotSpots::kOne, 91);
  c.fleet.num_shards = spec.shards;
  c.fleet.broker.group.num_groups = kGroups;
  c.fleet.broker.group.max_cells = kCells;
  if (!spec.refresh) {
    c.fleet.broker.refresh.churn_fraction = 0.0;
    c.fleet.broker.refresh.waste_ratio = 0.0;
  }
  for (const std::size_t i : ReplayOrder(spec.streams, seed)) {
    const std::uint64_t stream_seed = i + 1;
    c.streams.push_back(pubsub::BuildChaosSchedule(
        c.scenario.net, c.scenario.workload, spec.events, kChurnEvery,
        stream_seed));
    c.stream_seeds.push_back(stream_seed);
  }
  return c;
}

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> kNames = {
      "events_per_s", "publish_p50_us", "publish_p99_us", "churn_p50_us",
      "setup_s",      "peak_rss_mb",    "waste_ratio",    "wire_bytes_per_event"};
  return kNames;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> kNames = {
      "serve.fanout_us_p50",
      "serve.shards_visited_per_publish",
      "serve.refreshes_per_kcmd",
      "broker.refresh_churn_per_kcmd",
      "broker.refresh_waste_per_kcmd",
      "broker.churn_us_p50",
      "core.group_manager.refresh_ms_p50",
      "core.group_manager.refresh_share",
      "core.grid.build_ms_p50",
      "core.grid.hyper_cells",
      "core.kmeans.ms_p50",
      "core.kmeans.cell_visits_per_refresh",
      "core.matching.build_ms_p50",
      "core.matching.match_us_p50",
      "core.matching.multicast_ratio",
      "index.stab_us_p50",
      "runtime.deliver_us_p50",
      "runtime.messages_per_publish",
      "io.journal_encode_us_p50",
      "io.journal_bytes_per_cmd",
      "trace.unattributed_share",
      "trace.overhead_ratio"};
  return kNames;
}

HostInfo Host() {
  HostInfo h;
  h.hardware_threads = std::thread::hardware_concurrency();
  h.build_type = SERVEBENCH_BUILD_TYPE;
  h.cxx_flags = SERVEBENCH_CXX_FLAGS;
  h.compiler = SERVEBENCH_COMPILER;
  return h;
}

volatile std::uint64_t reference_loop_sink = 0;

double ReferenceLoopMs() {
  // Frozen: changing any constant here breaks comparison with earlier
  // readings.
  constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MiB
  constexpr std::size_t kWalkSteps = 4'000'000;
  constexpr std::size_t kHashSteps = 20'000'000;
  std::vector<std::uint64_t> table(kWords);
  std::uint64_t fill = 1;
  for (std::uint64_t& v : table) v = SplitMix64(fill);
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0;
  std::size_t idx = 0;
  for (std::size_t i = 0; i < kWalkSteps; ++i) {
    x += table[idx];
    idx = static_cast<std::size_t>(x ^ (x >> 17)) & (kWords - 1);
  }
  std::uint64_t state = x;
  for (std::size_t i = 0; i < kHashSteps; ++i) x ^= SplitMix64(state);
  const auto end = std::chrono::steady_clock::now();
  // Keep the result observable so the loops cannot be folded away.
  reference_loop_sink = x;
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace servebench
