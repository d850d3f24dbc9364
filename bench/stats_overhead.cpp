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
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/json.h"
#include "core/table.h"
#include "telemetry/sampler.h"
#include "telemetry/telemetry.h"

using namespace rebooting;
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

inline void clobber() { asm volatile("" ::: "memory"); }

template <typename Body>
Real min_pass_ns(const Body& body) {
  Real best = std::numeric_limits<Real>::infinity();
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < kOpsPerPass; ++i) {
      body(i);
      clobber();
    }
    const Real ns =
        std::chrono::duration<Real, std::nano>(Clock::now() - start).count();
    best = std::min(best, ns / static_cast<Real>(kOpsPerPass));
  }
  return best;
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
  const std::string out_path =
      rebooting::bench::artifact_path(argc, argv, "BENCH_stats.json");
  core::print_banner(std::cout,
                     "Metrics/sampler overhead — disabled path & tick cost");
  std::cout << "\n"
            << kOpsPerPass << " ops/pass, " << kPasses
            << " passes, min-pass reported; gates: disabled < "
            << kDisabledGateNs << " ns, take_sample < " << kTickGateMs
            << " ms on " << kCounters << " counters / " << kGauges
            << " gauges / " << kHistograms << " histograms\n\n";

  const Real baseline_ns = min_pass_ns([](std::size_t) {});

  // 1. Disabled path: TELEM_COUNT / TELEM_RECORD cost one enabled() check.
  telemetry::Telemetry::set_enabled(false);
  const Real disabled_count_ns =
      min_pass_ns([](std::size_t) { TELEM_COUNT("bench.off"); }) -
      baseline_ns;
  const Real disabled_record_ns =
      min_pass_ns([](std::size_t i) {
        TELEM_RECORD("bench.off.hist", static_cast<Real>(i));
      }) -
      baseline_ns;

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

  // Rate computation between the first and last sample (not gated; reported
  // so a regression is visible in the trajectory even below the tick gate).
  const auto rates_start = Clock::now();
  const telemetry::MetricsRates rates = telemetry::rates_between(first, last);
  const Real rates_ms = std::chrono::duration<Real, std::milli>(
                            Clock::now() - rates_start)
                            .count();

  const Real disabled_worst = std::max(disabled_count_ns, disabled_record_ns);
  const bool disabled_ok = disabled_worst < kDisabledGateNs;
  // Gate on the *minimum* tick like the ns-scale paths: it is the cost of
  // the code, not of scheduler noise; the max is reported alongside.
  const bool tick_ok = tick_best_ms < kTickGateMs;

  core::Table table({"path", "cost", "gate", "verdict"}, 4);
  table.add_row({std::string("disabled TELEM_COUNT [ns]"), disabled_count_ns,
                 kDisabledGateNs,
                 std::string(disabled_count_ns < kDisabledGateNs ? "PASS"
                                                                 : "FAIL")});
  table.add_row({std::string("disabled TELEM_RECORD [ns]"),
                 disabled_record_ns, kDisabledGateNs,
                 std::string(disabled_record_ns < kDisabledGateNs ? "PASS"
                                                                  : "FAIL")});
  table.add_row({std::string("take_sample, populated [ms]"), tick_best_ms,
                 kTickGateMs,
                 std::string(tick_ok ? "PASS" : "FAIL")});
  table.add_row({std::string("take_sample, worst pass [ms]"), tick_worst_ms,
                 std::string("-"), std::string("report")});
  table.add_row({std::string("rates_between [ms]"), rates_ms,
                 std::string("-"), std::string("report")});
  table.print(std::cout);
  std::cout << "\nloop baseline: " << baseline_ns << " ns; rate set holds "
            << rates.per_second.size() << " counters over dt="
            << rates.dt_seconds << " s\n"
            << "disabled gate: " << (disabled_ok ? "PASS" : "FAIL")
            << ", tick gate: " << (tick_ok ? "PASS" : "FAIL") << '\n';

  {
    std::ofstream json(out_path);
    json << "{\n"
         << "  \"bench\": " << core::json_quote("stats_overhead") << ",\n"
         << "  \"ops_per_pass\": "
         << core::json_number(static_cast<std::int64_t>(kOpsPerPass)) << ",\n"
         << "  \"passes\": "
         << core::json_number(static_cast<std::int64_t>(kPasses)) << ",\n"
         << "  \"counters\": "
         << core::json_number(static_cast<std::int64_t>(kCounters)) << ",\n"
         << "  \"gauges\": "
         << core::json_number(static_cast<std::int64_t>(kGauges)) << ",\n"
         << "  \"histograms\": "
         << core::json_number(static_cast<std::int64_t>(kHistograms)) << ",\n"
         << "  \"baseline_ns\": " << core::json_number(baseline_ns) << ",\n"
         << "  \"disabled_count_ns\": "
         << core::json_number(disabled_count_ns) << ",\n"
         << "  \"disabled_record_ns\": "
         << core::json_number(disabled_record_ns) << ",\n"
         << "  \"tick_ms\": " << core::json_number(tick_best_ms) << ",\n"
         << "  \"tick_worst_ms\": " << core::json_number(tick_worst_ms)
         << ",\n"
         << "  \"rates_ms\": " << core::json_number(rates_ms) << ",\n"
         << "  \"disabled_gate_ns\": " << core::json_number(kDisabledGateNs)
         << ",\n"
         << "  \"tick_gate_ms\": " << core::json_number(kTickGateMs) << ",\n"
         << "  \"disabled_gate_pass\": " << (disabled_ok ? "true" : "false")
         << ",\n"
         << "  \"tick_gate_pass\": " << (tick_ok ? "true" : "false")
         << "\n}\n";
    std::cout << "wrote " << out_path << '\n';
  }

  if (!disabled_ok) return 1;
  if (!tick_ok) return 2;
  return 0;
}
