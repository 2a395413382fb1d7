// Micro-benchmarks (google-benchmark) for the hot kernels: membership
// bit-vector operations, the expected-waste distance, lattice-index
// stabbing, Dijkstra, pruned-SPT multicast cost, and grid construction.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cluster_types.h"
#include "core/grid.h"
#include "index/lattice_index.h"
#include "net/multicast.h"
#include "net/shortest_path.h"
#include "net/transit_stub.h"
#include "sim/scenario.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace pubsub {
namespace {

BitVector RandomBits(std::size_t n, Rng& rng, double density = 0.1) {
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng.bernoulli(density)) v.set(i);
  return v;
}

void BM_BitVectorCountAndNot(benchmark::State& state) {
  Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitVector a = RandomBits(n, rng);
  const BitVector b = RandomBits(n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(a.count_and_not(b));
}
BENCHMARK(BM_BitVectorCountAndNot)->Arg(1000)->Arg(10000);

void BM_ExpectedWasteKernel(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  const BitVector a = RandomBits(n, rng);
  const BitVector b = RandomBits(n, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(ExpectedWaste(a, 0.3, b, 0.7));
}
BENCHMARK(BM_ExpectedWasteKernel)->Arg(1000)->Arg(10000);

void BM_GroupStateAddRemove(benchmark::State& state) {
  Rng rng(3);
  const std::size_t n = 1000;
  const BitVector bits = RandomBits(n, rng);
  const ClusterCell cell{&bits, 0.5};
  GroupState g(n);
  for (auto _ : state) {
    g.add(cell);
    g.remove(cell);
  }
}
BENCHMARK(BM_GroupStateAddRemove);

void BM_LatticeStab(benchmark::State& state) {
  Rng rng(4);
  const Scenario s = MakeStockScenario(static_cast<int>(state.range(0)),
                                       PublicationHotSpots::kOne, 5);
  LatticeIndex index(s.workload.space, s.workload.subscribers.size());
  for (std::size_t i = 0; i < s.workload.subscribers.size(); ++i)
    index.insert(static_cast<int>(i), s.workload.subscribers[i].interest);
  std::vector<Publication> pubs;
  for (int i = 0; i < 256; ++i) pubs.push_back(s.pub->sample(rng));
  std::vector<int> out;
  std::vector<std::uint64_t> tmp;
  std::size_t i = 0;
  for (auto _ : state) {
    index.stab(pubs[i++ % pubs.size()].point, out, tmp);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_LatticeStab)->Arg(1000)->Arg(5000);

void BM_Dijkstra600(benchmark::State& state) {
  Rng rng(6);
  const TransitStubNetwork net = GenerateTransitStub(PaperNetSection5(), rng);
  for (auto _ : state) benchmark::DoNotOptimize(Dijkstra(net.graph, 0).dist[10]);
}
BENCHMARK(BM_Dijkstra600);

void BM_PrunedSptCost(benchmark::State& state) {
  Rng rng(7);
  const TransitStubNetwork net = GenerateTransitStub(PaperNetSection5(), rng);
  const ShortestPathTree spt = Dijkstra(net.graph, 0);
  PrunedSptCost pruner(net.graph);
  std::vector<NodeId> members;
  for (NodeId v = 1; v < net.graph.num_nodes(); v += 11) members.push_back(v);
  for (auto _ : state) benchmark::DoNotOptimize(pruner.cost(spt, members));
}
BENCHMARK(BM_PrunedSptCost);

void BM_GridConstruction(benchmark::State& state) {
  const Scenario s = MakeStockScenario(static_cast<int>(state.range(0)),
                                       PublicationHotSpots::kOne, 8);
  for (auto _ : state) {
    const Grid grid(s.workload, *s.pub);
    benchmark::DoNotOptimize(grid.hyper_cells().size());
  }
}
BENCHMARK(BM_GridConstruction)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pubsub

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// $BENCH_OUT_DIR/BENCH_micro.json (JSON format) so every bench binary drops a
// machine-readable report; explicit --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) {
    const char* dir = std::getenv("BENCH_OUT_DIR");
    std::string path = dir != nullptr && *dir != '\0'
                           ? std::string(dir) + "/BENCH_micro.json"
                           : std::string("BENCH_micro.json");
    out_flag = "--benchmark_out=" + path;
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
