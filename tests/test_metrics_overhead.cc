// CI guard for the telemetry tentpole's overhead budget: publish throughput
// with the metrics registry enabled must stay within 5% of a run with the
// registry's master switch off.  Wall-clock based, so the two arms are
// timed as interleaved pairs (see below) and the test is skipped under
// sanitizers (instrumentation skews relative timings far beyond the budget).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "broker/broker.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "workload/stock_model.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PS_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PS_UNDER_SANITIZER 1
#endif

namespace pubsub {
namespace {

TEST(MetricsOverhead, PublishThroughputWithinBudget) {
#ifdef PS_UNDER_SANITIZER
  GTEST_SKIP() << "timing-sensitive; sanitizer instrumentation skews ratios";
#endif
  const Scenario scenario = MakeStockScenario(300, PublicationHotSpots::kOne, 61);
  DeliverySimulator sim(scenario.net.graph, scenario.workload);
  Rng rng(62);
  const std::vector<EventSample> events =
      SampleEvents(sim, *scenario.pub, 200, rng);

  BrokerOptions opts;
  opts.group.num_groups = 12;
  opts.group.max_cells = 800;
  opts.refresh.churn_fraction = 0.0;  // no refreshes: measure the publish path
  opts.refresh.waste_ratio = 0.0;

  // One trial: a fresh broker per arm, fed the same events in lockstep.
  // Which arm publishes first alternates per event, and which broker is
  // built first alternates per trial, so a host slowdown or an
  // allocation-order effect lands on both arms alike.  Timing the arms as
  // separate back-to-back runs and comparing their minima let such effects
  // decide the ratio: with both arms enabled, that design read above 1.05
  // in about one run in five on a shared 4-vCPU host.
  // Returns the trial's enabled / disabled publish-time ratio.
  const auto trial_ratio = [&](bool build_enabled_first) {
    struct Arm {
      bool enabled = false;
      ManualClock clock;
      std::unique_ptr<Broker> broker;
      double seconds = 0.0;
    };
    Arm arms[2];
    arms[0].enabled = true;
    for (int k = 0; k < 2; ++k) {
      Arm& a = arms[build_enabled_first ? k : 1 - k];
      a.broker = std::make_unique<Broker>(scenario.workload, *scenario.pub,
                                          scenario.net.graph, opts, &a.clock);
      a.broker->metrics().set_enabled(a.enabled);
    }
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t k = 0; k < 2; ++k) {
        Arm& a = arms[(i + k) % 2];
        MetricsRegistry::Default().set_enabled(a.enabled);
        a.clock.advance(1.0);
        StopwatchClock watch;
        a.broker->publish(events[i].pub.origin, events[i].pub.point);
        a.seconds += watch.elapsed_seconds();
      }
    }
    return arms[0].seconds / arms[1].seconds;
  };

  // The median over trials, so one disturbed trial cannot decide it.
  constexpr int kTrials = 7;
  trial_ratio(true);  // warm-up run, discarded
  std::vector<double> ratios;
  for (int t = 0; t < kTrials; ++t) ratios.push_back(trial_ratio(t % 2 == 0));
  MetricsRegistry::Default().set_enabled(true);
  std::sort(ratios.begin(), ratios.end());

  const double ratio = ratios[kTrials / 2];
  EXPECT_LE(ratio, 1.05) << "instrumented publish path is " << ratio
                         << "x the registry-disabled baseline (budget 1.05x)";
}

}  // namespace
}  // namespace pubsub
