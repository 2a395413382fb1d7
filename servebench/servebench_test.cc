// Tests of the benchmark's own logic: the percentile helper and its
// samples-beyond rule, corpus determinism, metric naming, and the traced
// run's mirror check.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/serialize.h"
#include "serve_bench.h"
#include "stats.h"
#include "util/thread_pool.h"

namespace servebench {
namespace {

// Small enough that a run takes a few seconds, large enough to re-cluster
// several times (churn every 4th event passes the 5% churn trigger).
WorkloadSpec TinySpec(std::size_t shards) {
  WorkloadSpec w;
  w.name = "tiny";
  w.shards = shards;
  w.subscribers = 200;
  w.streams = 3;
  w.events = 120;
  return w;
}

std::string Serialize(const Corpus& c) {
  std::ostringstream os;
  for (const auto& stream : c.streams)
    for (const pubsub::JournalRecord& rec : stream)
      pubsub::WriteJournalRecord(os, rec, c.scenario.workload.space.dims());
  return os.str();
}

const Metric* Find(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics)
    if (m.name == name) return &m;
  return nullptr;
}

TEST(ServeBenchPercentile, NearestRank) {
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile(v, 0.8), 4);
  EXPECT_EQ(Percentile(v, 0.81), 5);
  std::vector<double> empty;
  EXPECT_EQ(Percentile(empty, 0.5), 0);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(Percentile(hundred, 0.99), 99);
}

TEST(ServeBenchPercentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(TailReportable(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(TailReportable(999, 0.99));
  EXPECT_FALSE(TailReportable(100, 0.99));
  EXPECT_TRUE(TailReportable(20, 0.5));
  EXPECT_FALSE(TailReportable(0, 0.5));
}

TEST(ServeBenchCorpus, SameSeedSameStreamOtherSeedOtherStream) {
  const WorkloadSpec w = TinySpec(1);
  const Corpus a = MakeCorpus(w, 1);
  const Corpus b = MakeCorpus(w, 1);
  EXPECT_EQ(Serialize(a), Serialize(b));
  EXPECT_EQ(a.stream_seeds, b.stream_seeds);
  // Some seed in a short range must reorder the streams.
  bool differs = false;
  for (std::uint64_t seed = 2; seed < 10 && !differs; ++seed)
    differs = Serialize(MakeCorpus(w, seed)) != Serialize(a);
  EXPECT_TRUE(differs);
}

TEST(ServeBenchCorpus, ReplayOrderIsAPermutation) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    std::vector<std::size_t> order = ReplayOrder(7, seed);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  }
  EXPECT_EQ(ReplayOrder(7, 3), ReplayOrder(7, 3));
}

TEST(ServeBenchNames, FollowTheNamingRule) {
  EXPECT_TRUE(ValidName("core.grid.build_ms_p50"));
  EXPECT_TRUE(ValidName("steady_1shard"));
  EXPECT_FALSE(ValidName(""));
  EXPECT_FALSE(ValidName(".leading_dot"));
  EXPECT_FALSE(ValidName("has space"));
  EXPECT_FALSE(ValidName("unit/slash"));
  EXPECT_FALSE(ValidName(std::string(65, 'a')));
  for (const WorkloadSpec& w : Workloads()) EXPECT_TRUE(ValidName(w.name)) << w.name;
  for (const std::string& n : EndToEndNames()) EXPECT_TRUE(ValidName(n)) << n;
  for (const std::string& n : PerLayerNames()) EXPECT_TRUE(ValidName(n)) << n;

  pubsub::ThreadPool::global().set_num_threads(kThreads);
  const Corpus c = MakeCorpus(TinySpec(2), 1);
  TraceOptions opts;
  opts.seconds = 0.01;
  for (const RunResult& r : {RunServe(c, 0.01), RunTraced(c, opts)})
    for (const Metric& m : r.metrics) EXPECT_TRUE(ValidName(m.name)) << m.name;
}

TEST(ServeBenchNames, MatchBenchmarkJson) {
  std::ifstream in(std::string(SERVEBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::set<std::string> in_json;
  const std::regex name_re("\"name\"\\s*:\\s*\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), name_re);
       it != std::sregex_iterator(); ++it)
    in_json.insert((*it)[1].str());
  std::set<std::string> ours;
  for (const WorkloadSpec& w : Workloads()) ours.insert(w.name);
  for (const std::string& n : EndToEndNames()) ours.insert(n);
  for (const std::string& n : PerLayerNames()) ours.insert(n);
  EXPECT_EQ(in_json, ours);
}

TEST(ServeBenchRun, UntracedRunIsCorrectAndRepeatsItsCounts) {
  pubsub::ThreadPool::global().set_num_threads(kThreads);
  const RunResult a = RunServe(MakeCorpus(TinySpec(2), 1), 0.01);
  const RunResult b = RunServe(MakeCorpus(TinySpec(2), 5), 0.01);
  EXPECT_TRUE(a.correct);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_GT(a.attempted, 0u);
  for (const char* name : {"waste_ratio", "wire_bytes_per_event", "refreshes"}) {
    ASSERT_NE(Find(a, name), nullptr) << name;
    EXPECT_EQ(Find(a, name)->value, Find(b, name)->value) << name;
  }
  EXPECT_GT(Find(a, "refreshes")->value, 0);
}

TEST(ServeBenchTrace, MirrorsAgreeWithTheFleet) {
  pubsub::ThreadPool::global().set_num_threads(kThreads);
  for (const std::size_t shards : {1u, 3u}) {
    TraceOptions opts;
    opts.seconds = 0.01;
    const RunResult r = RunTraced(MakeCorpus(TinySpec(shards), 1), opts);
    EXPECT_TRUE(r.correct) << shards << " shards: "
                           << (r.notes.empty() ? "" : r.notes[0]);
    EXPECT_EQ(r.failed, 0u);
    ASSERT_NE(Find(r, "serve.refreshes_per_kcmd"), nullptr);
    EXPECT_GT(Find(r, "serve.refreshes_per_kcmd")->value, 0);
  }
}

TEST(ServeBenchTrace, DivergedMirrorFailsTheRun) {
  pubsub::ThreadPool::global().set_num_threads(kThreads);
  TraceOptions opts;
  opts.seconds = 0.01;
  opts.diverge_mirror = true;
  const RunResult r = RunTraced(MakeCorpus(TinySpec(1), 1), opts);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.failed, r.attempted);
  ASSERT_FALSE(r.notes.empty());
  EXPECT_NE(r.notes[0].find("mirror GroupManager table differs"),
            std::string::npos)
      << r.notes[0];
}

}  // namespace
}  // namespace servebench
