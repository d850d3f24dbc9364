// Metrics/sampling overhead bench — gates the cost discipline the
// fleet-observability surface (telemetry::take_sample, rebootd's
// metrics/watch verbs) depends on, with a machine-readable BENCH_stats.json.
//
// Two claims are gated:
//
//   1. A disabled metric update costs < 2 ns per instrumented point (one
//      relaxed atomic load + branch) — the same discipline trace_overhead
//      gates for trace points, re-asserted here for TELEM_COUNT/TELEM_RECORD
//      so instrumentation stays compiled into engine hot loops.
//   2. One take_sample() on a *populated* registry (hundreds of counters,
//      dozens of live histograms) costs < 5 ms. A watch subscription takes
//      at most one sample per interval (floor 20 ms), so the gate bounds
//      sampling overhead at < 25% of one core in the worst configuration
//      and ~1% at the default 500 ms cadence — an ops dashboard must never
//      become the load.
//
// Methodology matches the other exit-gated benches: min-pass timing over
// repeated passes, empty-loop baseline subtracted for the ns-scale paths,
// asm memory clobber so the disabled-path check cannot be hoisted.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <string>

#include "bench_util.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"

using namespace rebooting;
using bench::Better;
using core::Real;

namespace {

constexpr std::size_t kOpsPerPass = 200000;
constexpr std::size_t kPasses = 25;
constexpr std::size_t kTickPasses = 50;
constexpr Real kDisabledGateNs = 2.0;
constexpr Real kTickGateMs = 5.0;

// Registry population: sized like a busy multi-pool rebootd after a long
// soak, then some (net.*, sched.*, work.*, per-pool gauges, latency
// histograms), so the tick gate measures the realistic worst case, not an
// empty-map walk.
constexpr std::size_t kCounters = 400;
constexpr std::size_t kGauges = 100;
constexpr std::size_t kHistograms = 40;
constexpr std::size_t kRecordsPerHistogram = 4096;

using Clock = std::chrono::steady_clock;

template <typename Body>
Real min_pass_ns(const Body& body) {
  return bench::min_pass_ns(kPasses, kOpsPerPass, body);
}

void populate(telemetry::MetricsRegistry& registry) {
  for (std::size_t i = 0; i < kCounters; ++i)
    registry.add("bench.counter." + std::to_string(i),
                 static_cast<Real>(i + 1));
  for (std::size_t i = 0; i < kGauges; ++i)
    registry.set("bench.gauge." + std::to_string(i), static_cast<Real>(i));
  for (std::size_t i = 0; i < kHistograms; ++i) {
    const std::string name = "bench.hist." + std::to_string(i);
    for (std::size_t k = 0; k < kRecordsPerHistogram; ++k)
      registry.record(name, 1.0e-6 * static_cast<Real>(k + 1));
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("stats_overhead", "BENCH_stats.json", argc, argv);
  core::print_banner(std::cout,
                     "Metrics/sampler overhead — disabled path & tick cost");
  report.param("ops_per_pass", kOpsPerPass);
  report.param("passes", kPasses);
  report.param("tick_passes", kTickPasses);
  report.param("counters", kCounters);
  report.param("gauges", kGauges);
  report.param("histograms", kHistograms);

  const Real baseline_ns = min_pass_ns([](std::size_t) {});
  report.measure("baseline", "ns", baseline_ns, Better::kLower);

  // 1. Disabled path: TELEM_COUNT / TELEM_RECORD cost one enabled() check.
  telemetry::Telemetry::set_enabled(false);
  report.gate("disabled_count", "ns",
              min_pass_ns([](std::size_t) { TELEM_COUNT("bench.off"); }) -
                  baseline_ns,
              Better::kLower, kDisabledGateNs);
  report.gate("disabled_record", "ns",
              min_pass_ns([](std::size_t i) {
                TELEM_RECORD("bench.off.hist", static_cast<Real>(i));
              }) - baseline_ns,
              Better::kLower, kDisabledGateNs);

  // 2. Tick cost on a populated registry. A standalone registry, not the
  //    global one, so the numbers do not depend on what earlier passes left
  //    behind.
  telemetry::MetricsRegistry registry;
  populate(registry);
  const auto epoch = Clock::now();

  Real tick_best_ms = std::numeric_limits<Real>::infinity();
  Real tick_worst_ms = 0.0;
  telemetry::MetricsSample first, last;
  for (std::size_t pass = 0; pass < kTickPasses; ++pass) {
    const auto start = Clock::now();
    telemetry::MetricsSample sample = telemetry::take_sample(registry, epoch);
    const Real ms =
        std::chrono::duration<Real, std::milli>(Clock::now() - start).count();
    tick_best_ms = std::min(tick_best_ms, ms);
    tick_worst_ms = std::max(tick_worst_ms, ms);
    if (sample.counters.size() != kCounters) return 3;  // self-check
    (pass == 0 ? first : last) = std::move(sample);
  }
  // Gate on the *minimum* tick like the ns-scale paths: it is the cost of
  // the code, not of scheduler noise; the max is reported alongside.
  report.gate("take_sample", "ms", tick_best_ms, Better::kLower, kTickGateMs);
  report.measure("take_sample_worst", "ms", tick_worst_ms, Better::kLower);

  // Rate computation between the first and last sample (not gated; reported
  // so a regression is visible in the trajectory even below the tick gate).
  const auto rates_start = Clock::now();
  const telemetry::MetricsRates rates = telemetry::rates_between(first, last);
  report.measure("rates_between", "ms",
                 std::chrono::duration<Real, std::milli>(Clock::now() -
                                                         rates_start)
                     .count(),
                 Better::kLower);
  report.param("rate_counters", rates.per_second.size());

  return report.finish();
}
