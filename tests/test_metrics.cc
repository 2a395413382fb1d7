#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "io/serialize.h"
#include "obs/clock.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "util/thread_pool.h"
#include "workload/stock_model.h"

namespace pubsub {
namespace {

// ---- histogram bucket boundaries -----------------------------------------

TEST(Metrics, HistogramBucketBoundaries) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("h", "test", {1.0, 2.0, 4.0});

  h->observe(0.5);  // -> le=1
  h->observe(1.0);  // exact bound is inclusive (prometheus `le`) -> le=1
  h->observe(1.5);  // -> le=2
  h->observe(2.0);  // -> le=2
  h->observe(3.0);  // -> le=4
  h->observe(5.0);  // -> +Inf

  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 5.0);
  const std::vector<std::uint64_t> buckets = h->bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + the implicit +Inf bucket
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, BucketGenerators) {
  const std::vector<double> exp = ExponentialBuckets(1.0, 2.0, 3);
  ASSERT_EQ(exp.size(), 3u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[1], 2.0);
  EXPECT_DOUBLE_EQ(exp[2], 4.0);

  const std::vector<double> lin = LinearBuckets(10.0, 5.0, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 10.0);
  EXPECT_DOUBLE_EQ(lin[1], 15.0);
  EXPECT_DOUBLE_EQ(lin[2], 20.0);
}

// ---- shard merge under concurrency ---------------------------------------

// Counter and histogram updates are sharded per thread; the scrape-side
// merge is a plain sum, so the total must equal the number of updates no
// matter how threads were assigned to shards.
TEST(Metrics, ShardMergeIsExactUnderThreads) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c", "test");
  Histogram* h = reg.histogram("h", "test", {0.5});

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c->inc();
        h->observe(1.0);
      }
    });
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  const std::vector<std::uint64_t> buckets = h->bucket_counts();
  EXPECT_EQ(buckets.back(), kThreads * kPerThread);  // all in +Inf
}

// ---- registry semantics ---------------------------------------------------

TEST(Metrics, RegistryDeduplicatesByName) {
  MetricsRegistry reg;
  Counter* a = reg.counter("dup", "first");
  Counter* b = reg.counter("dup", "second registration ignored");
  EXPECT_EQ(a, b);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(Metrics, RegistryThrowsOnKindMismatch) {
  MetricsRegistry reg;
  reg.counter("m", "a counter");
  EXPECT_THROW(reg.gauge("m", "now a gauge"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("m", "now a histogram", {1.0}),
               std::invalid_argument);
}

TEST(Metrics, DisabledRegistryDropsUpdates) {
  MetricsRegistry reg;
  Counter* c = reg.counter("c", "test");
  Gauge* g = reg.gauge("g", "test");
  c->inc();
  g->set(2.0);
  reg.set_enabled(false);
  c->inc(100);
  g->set(99.0);
  EXPECT_EQ(c->value(), 1u);       // stale value survives a scrape
  EXPECT_DOUBLE_EQ(g->value(), 2.0);
  reg.set_enabled(true);
  c->inc();
  EXPECT_EQ(c->value(), 2u);
}

TEST(Metrics, NullSafeHelpers) {
  Inc(nullptr);
  Set(nullptr, 1.0);
  Observe(nullptr, 1.0);  // must not crash
}

// ---- trace ring -----------------------------------------------------------

TEST(Trace, RingWrapsAndCountsDrops) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.record(TraceSpan{i, i, -1, PublishStage::kMatch,
                          static_cast<double>(i), 0.0});

  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);

  const std::vector<TraceSpan> spans = ring.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first: the last four records survive.
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].seq, 6u + i);
}

// serve-replay --trace-out writes a standalone broker's ring through
// WriteTraceJson, as serve writes the fleet's: a standalone broker's spans
// carry trace_id = seq and shard = -1.
TEST(Trace, JsonWriterEmitsStandaloneBrokerSpans) {
  const Scenario scenario =
      MakeStockScenario(60, PublicationHotSpots::kOne, 61);
  DeliverySimulator sim(scenario.net.graph, scenario.workload);
  Rng rng(62);
  const std::vector<EventSample> events =
      SampleEvents(sim, *scenario.pub, 6, rng);
  BrokerOptions opts;
  opts.group.num_groups = 4;
  opts.group.max_cells = 200;
  opts.obs.trace_sample = 2;
  ManualClock clock, trace_clock;
  opts.obs.trace_clock = &trace_clock;
  Broker broker(scenario.workload, *scenario.pub, scenario.net.graph, opts,
                &clock);
  for (const EventSample& e : events) {
    clock.advance(1.0);
    broker.publish(e.pub.origin, e.pub.point);
  }

  std::ostringstream os;
  WriteTraceJson(os, broker.trace());
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);
  EXPECT_EQ(line, "{\"recorded\":" + std::to_string(broker.trace().recorded()) +
                      ",\"dropped\":0,\"spans\":[");
  std::size_t spans = 0;
  while (std::getline(lines, line)) {
    unsigned long long trace_id = 0, seq = 0;
    int shard = 0;
    if (std::sscanf(line.c_str(),
                    "{\"trace_id\":%llu,\"seq\":%llu,\"shard\":%d",
                    &trace_id, &seq, &shard) != 3)
      continue;
    ++spans;
    EXPECT_EQ(trace_id, seq) << line;
    EXPECT_EQ(seq % 2, 0u) << line;
    EXPECT_EQ(shard, -1) << line;
  }
  // Three sampled publishes (seq 2, 4, 6), four stages each.
  EXPECT_EQ(spans, 12u);
  EXPECT_EQ(broker.trace().recorded(), 12u);
  EXPECT_NE(os.str().find("\"stage\":\"delivery_plan\""), std::string::npos);
}

// ---- exposition -----------------------------------------------------------

TEST(Metrics, PrometheusTextSplitsEmbeddedLabels) {
  MetricsRegistry reg;
  reg.counter("requests_total{code=\"200\"}", "labeled counter")->inc(3);
  reg.gauge("temperature", "plain gauge")->set(21.5);
  reg.histogram("latency_ms", "histogram", {1.0, 2.0})->observe(1.5);

  std::ostringstream os;
  WriteMetricsText(os, reg.scrape());
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total{code=\"200\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE temperature gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("latency_ms_count 1"), std::string::npos);
}

TEST(Metrics, JsonExpositionContainsSamples) {
  MetricsRegistry reg;
  reg.counter("c_total", "counter")->inc(5);
  std::ostringstream os;
  WriteMetricsJson(os, reg.scrape());
  const std::string text = os.str();
  EXPECT_NE(text.find("\"c_total\""), std::string::npos);
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
}

TEST(Metrics, ScrapeCanExcludeRuntimeMetrics) {
  MetricsRegistry reg;
  reg.counter("det_total", "deterministic");
  reg.counter("rt_total", "runtime", MetricStability::kRuntime);
  const MetricsSnapshot all = reg.scrape();
  const MetricsSnapshot det = reg.scrape(/*include_runtime=*/false);
  EXPECT_EQ(all.samples.size(), 2u);
  ASSERT_EQ(det.samples.size(), 1u);
  EXPECT_EQ(det.samples[0].info.name, "det_total");
}

// ---- snapshot merge (fleet scrape building block) --------------------------

TEST(Metrics, MergeCombinesExactDuplicateNames) {
  MetricsRegistry a;
  a.counter("c_total", "counter")->inc(3);
  a.gauge("g", "gauge")->set(1.5);
  a.histogram("h_ms", "hist", {1.0, 2.0})->observe(0.5);
  MetricsRegistry b;
  b.counter("c_total", "counter")->inc(4);
  b.gauge("g", "gauge")->set(2.5);
  b.histogram("h_ms", "hist", {1.0, 2.0})->observe(1.5);

  MetricsSnapshot snap = a.scrape();
  snap.merge(b.scrape());
  ASSERT_EQ(snap.samples.size(), 3u);  // combined, never duplicated
  EXPECT_EQ(snap.samples[0].info.name, "c_total");
  EXPECT_EQ(snap.samples[0].counter_value, 7u);
  EXPECT_DOUBLE_EQ(snap.samples[1].gauge_value, 1.5 + 2.5);
  EXPECT_EQ(snap.samples[2].hist_count, 2u);
  EXPECT_DOUBLE_EQ(snap.samples[2].hist_sum, 2.0);
  ASSERT_EQ(snap.samples[2].hist_buckets.size(), 3u);
  EXPECT_EQ(snap.samples[2].hist_buckets[0], 1u);
  EXPECT_EQ(snap.samples[2].hist_buckets[1], 1u);
}

TEST(Metrics, MergeThrowsOnKindOrBoundsMismatch) {
  MetricsRegistry a;
  a.counter("m", "counter");
  MetricsRegistry b;
  b.gauge("m", "gauge");
  MetricsSnapshot snap = a.scrape();
  EXPECT_THROW(snap.merge(b.scrape()), std::invalid_argument);

  MetricsRegistry c;
  c.histogram("h", "hist", {1.0});
  MetricsRegistry d;
  d.histogram("h", "hist", {2.0});
  MetricsSnapshot hsnap = c.scrape();
  EXPECT_THROW(hsnap.merge(d.scrape()), std::invalid_argument);
}

// The fleet-scrape regression: identical per-shard metric names must land
// as distinct labeled series, never alias into one double-counted sample.
TEST(Metrics, MergeLabeledKeepsShardSeriesDistinct) {
  MetricsRegistry shard0;
  shard0.counter("broker_commands_total", "cmds")->inc(10);
  shard0.counter("hits_total{stage=\"match\"}", "labeled")->inc(1);
  MetricsRegistry shard1;
  shard1.counter("broker_commands_total", "cmds")->inc(20);
  shard1.counter("hits_total{stage=\"match\"}", "labeled")->inc(2);

  MetricsSnapshot snap;
  snap.merge_labeled(shard0.scrape(), "shard", "0");
  snap.merge_labeled(shard1.scrape(), "shard", "1");

  ASSERT_EQ(snap.samples.size(), 4u);
  const auto find = [&](const std::string& name) -> const MetricSample* {
    for (const MetricSample& s : snap.samples)
      if (s.info.name == name) return &s;
    return nullptr;
  };
  const MetricSample* c0 = find("broker_commands_total{shard=\"0\"}");
  const MetricSample* c1 = find("broker_commands_total{shard=\"1\"}");
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c0->counter_value, 10u);
  EXPECT_EQ(c1->counter_value, 20u);
  // The shard label is appended to an existing label set, not nested.
  const MetricSample* l1 = find("hits_total{stage=\"match\",shard=\"1\"}");
  ASSERT_NE(l1, nullptr);
  EXPECT_EQ(l1->counter_value, 2u);
}

// ---- watchdog: quantiles, skew, backlog, audit -----------------------------

TEST(Watchdog, HistogramQuantileInterpolatesWithinBucket) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // 2 in (0,1], 4 in (1,2], 2 in (2,4], 2 in +Inf.
  const std::vector<std::uint64_t> buckets = {2, 4, 2, 2};
  // p50: rank 5 -> 3rd of 4 inside (1,2] -> 1.75.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 0.5), 1.75);
  // p0 clamps to rank 1 -> first half of (0,1].
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 0.0), 0.5);
  // p100 lands in +Inf: clamp to the last finite bound.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, buckets, 1.0), 4.0);
  // Empty histogram reads 0.
  EXPECT_DOUBLE_EQ(HistogramQuantile(bounds, {0, 0, 0, 0}, 0.99), 0.0);
}

TEST(Watchdog, SlowShardAlertIsEdgeTriggered) {
  MetricsRegistry reg;
  Histogram* fast0 = reg.histogram("s0", "t", {1.0, 10.0, 100.0});
  Histogram* fast1 = reg.histogram("s1", "t", {1.0, 10.0, 100.0});
  Histogram* slow = reg.histogram("s2", "t", {1.0, 10.0, 100.0});
  for (int i = 0; i < 32; ++i) {
    fast0->observe(0.5);
    fast1->observe(0.5);
    slow->observe(90.0);
  }
  FleetWatchdog dog(WatchdogOptions{}, &reg);
  const std::vector<const Histogram*> hists = {fast0, fast1, slow};

  std::vector<WatchdogAlert> alerts = dog.check(1.0, hists, 0);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, WatchdogAlertKind::kSlowShard);
  EXPECT_EQ(alerts[0].shard, 2);
  EXPECT_NE(alerts[0].detail.find("shard 2"), std::string::npos);
  // Still slow on the next check: edge-triggered, no repeat alert.
  EXPECT_TRUE(dog.check(2.0, hists, 0).empty());
  EXPECT_EQ(dog.checks(), 2u);
  EXPECT_EQ(reg.counter("watchdog_alerts_total{kind=\"slow_shard\"}", "",
                        MetricStability::kRuntime)
                ->value(),
            1u);
}

TEST(Watchdog, HealthyShardsStaySilent) {
  MetricsRegistry reg;
  Histogram* a = reg.histogram("a", "t", {1.0, 10.0});
  Histogram* b = reg.histogram("b", "t", {1.0, 10.0});
  for (int i = 0; i < 64; ++i) {
    a->observe(0.4);
    b->observe(0.6);
  }
  FleetWatchdog dog(WatchdogOptions{});
  // Balanced latencies, small backlog.
  EXPECT_TRUE(dog.check(1.0, {a, b}, 3).empty());
  EXPECT_TRUE(dog.alerts().empty());
}

TEST(Watchdog, BacklogAlertFiresOnceUntilCleared) {
  WatchdogOptions opts;
  opts.max_backlog = 4;
  FleetWatchdog dog(opts);
  EXPECT_TRUE(dog.check(1.0, {}, 3).empty());
  std::vector<WatchdogAlert> alerts = dog.check(2.0, {}, 4);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, WatchdogAlertKind::kStallBacklog);
  EXPECT_TRUE(dog.check(3.0, {}, 9).empty());   // still over: no repeat
  EXPECT_TRUE(dog.check(4.0, {}, 0).empty());   // cleared: re-armed
  ASSERT_EQ(dog.check(5.0, {}, 4).size(), 1u);  // fires again
}

TEST(Watchdog, AuditFlagsSeqAndDigestDivergence) {
  FleetWatchdog dog(WatchdogOptions{});
  // Healthy baseline.
  EXPECT_TRUE(dog.audit(1.0, {{0, 5, 5, 111}, {1, 6, 6, 222}}).empty());
  // Shard 1's seq disagrees with the fleet bookkeeping.
  std::vector<WatchdogAlert> alerts =
      dog.audit(2.0, {{0, 7, 7, 112}, {1, 6, 8, 222}});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, WatchdogAlertKind::kDigestDivergence);
  EXPECT_EQ(alerts[0].shard, 1);
  // Edge-triggered while the condition persists.
  EXPECT_TRUE(dog.audit(3.0, {{1, 6, 8, 222}}).empty());
  // Digest mutated with no seq movement: state changed outside the
  // sequenced command stream.
  EXPECT_TRUE(dog.audit(4.0, {{0, 7, 7, 112}}).empty());
  alerts = dog.audit(5.0, {{0, 7, 7, 999}});
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_NE(alerts[0].detail.find("digest changed"), std::string::npos);
  EXPECT_EQ(dog.audits(), 5u);
}

// ---- broker metrics byte-stability across thread counts --------------------

// Drives two brokers with the identical command stream at --threads=1 and
// --threads=8 and asserts the deterministic scrape is byte-identical: the
// issue's acceptance criterion for the sharded registry.
TEST(Metrics, BrokerDeterministicScrapeIsByteStableAcrossThreads) {
  const Scenario scenario = MakeStockScenario(200, PublicationHotSpots::kOne, 61);
  DeliverySimulator sim(scenario.net.graph, scenario.workload);
  Rng rng(62);
  const std::vector<EventSample> events = SampleEvents(sim, *scenario.pub, 80, rng);

  const auto run = [&](int threads) {
    ThreadPool::global().set_num_threads(threads);
    BrokerOptions opts;
    opts.group.num_groups = 10;
    opts.group.max_cells = 600;
    opts.refresh.churn_fraction = 0.05;
    opts.refresh.waste_ratio = 0.0;
    opts.obs.trace_sample = 4;
    ManualClock clock;
    Broker broker(scenario.workload, *scenario.pub, scenario.net.graph, opts,
                  &clock);
    for (std::size_t i = 0; i < events.size(); ++i) {
      clock.advance(5.0);
      if (i % 7 == 3)
        broker.subscribe(events[i].pub.origin,
                         broker.workload().space.domain_rect());
      broker.publish(events[i].pub.origin, events[i].pub.point);
    }
    std::ostringstream os;
    WriteMetricsText(os, broker.metrics().scrape(/*include_runtime=*/false));
    return os.str();
  };

  const std::string serial = run(1);
  const std::string parallel = run(8);
  ThreadPool::global().set_num_threads(1);
  EXPECT_EQ(serial, parallel);
  // Sanity: the deterministic scrape actually carries broker counters.
  EXPECT_NE(serial.find("broker_commands_total"), std::string::npos);
}

}  // namespace
}  // namespace pubsub
