// Sampling tests: take_sample copies the registry, and the rate math
// (including counters born between samples and the dt<=0 guard).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "telemetry/sampler.h"

namespace rebooting::telemetry {
namespace {

using namespace std::chrono_literals;

TEST(Sampler, TickSnapshotsTheRegistryIntoTheRing) {
  MetricsRegistry registry;
  registry.add("req", 3.0);
  registry.set("depth", 7.0);
  registry.record("lat", 0.25);

  const auto epoch = std::chrono::steady_clock::now();
  const MetricsSample sample = take_sample(registry, epoch);
  EXPECT_GE(sample.t_seconds, 0.0);
  EXPECT_DOUBLE_EQ(sample.counters.at("req"), 3.0);
  EXPECT_DOUBLE_EQ(sample.gauges.at("depth"), 7.0);
  EXPECT_EQ(sample.histograms.at("lat").count, 1u);

  // The sample is a copy: later registry updates do not leak into it.
  registry.add("req", 10.0);
  EXPECT_DOUBLE_EQ(sample.counters.at("req"), 3.0);
  EXPECT_DOUBLE_EQ(take_sample(registry, epoch).counters.at("req"), 13.0);
}

TEST(Sampler, RatesComeFromTheLastTwoSamples) {
  MetricsRegistry registry;
  const auto epoch = std::chrono::steady_clock::now();
  registry.add("req", 5.0);
  const MetricsSample older = take_sample(registry, epoch);

  std::this_thread::sleep_for(2ms);
  registry.add("req", 5.0);
  registry.add("born.later", 4.0);  // counter absent from the older sample
  const MetricsSample newer = take_sample(registry, epoch);

  const MetricsRates rates = rates_between(older, newer);
  ASSERT_GT(rates.dt_seconds, 0.0);
  EXPECT_NEAR(rates.per_second.at("req"), 5.0 / rates.dt_seconds, 1e-6);
  // A counter created between samples rates from 0, not from absent.
  EXPECT_NEAR(rates.per_second.at("born.later"), 4.0 / rates.dt_seconds,
              1e-6);
}

TEST(Sampler, RatesBetweenGuardsAgainstZeroDt) {
  MetricsSample a;
  a.t_seconds = 1.0;
  a.counters["x"] = 1.0;
  MetricsSample b;
  b.t_seconds = 1.0;  // same instant: no infinities, just no rates
  b.counters["x"] = 100.0;
  EXPECT_TRUE(rates_between(a, b).per_second.empty());
  // Backwards time (samples handed in the wrong order) is equally undefined.
  b.t_seconds = 0.5;
  EXPECT_TRUE(rates_between(a, b).per_second.empty());
}

}  // namespace
}  // namespace rebooting::telemetry
