// Scheduler saturation bench — the repo's first cross-paradigm *system*
// benchmark. Where every other bench exercises one engine, this one drives a
// mixed stream of quantum, oscillator, and DMM jobs through the async
// scheduler (src/scheduler/) with 1 -> N workers per kind and reports
// end-to-end throughput plus p50/p99 latency read back from the telemetry
// histograms (`sched.wait_seconds` / `sched.latency_seconds`).
//
// Latency model: each job does its host-side compute (circuit simulation,
// calibrated-curve lookups, DMM integration) and then *waits out* the latency
// its own device model predicts for the physical accelerator — the quantum
// stack's scheduled cycle count x cycle time x shots, the comparator's
// readout_cycles / f_osc per comparison, and an RC time constant per accepted
// DMM integration step. In the paper's Fig. 1 deployment the host really does
// block on the device for exactly that long, so worker scaling here measures
// what the scheduler is for: keeping many devices busy concurrently, not
// spreading host FLOPs over cores. Throughput therefore scales with workers
// even on a single-core host.
//
// Writes BENCH_saturation.json; exits 1 when the best speedup over one worker
// per kind is below 1.5x.
#include <chrono>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/random.h"
#include "memcomputing/accelerator.h"
#include "memcomputing/cnf.h"
#include "memcomputing/dmm.h"
#include "oscillator/comparator.h"
#include "quantum/circuit.h"
#include "quantum/runtime.h"
#include "scheduler/scheduler.h"
#include "telemetry/telemetry.h"

using namespace rebooting;
using bench::Better;
using core::Real;

namespace {

constexpr std::size_t kJobsPerKind = 24;
constexpr std::size_t kQuantumShots = 1024;
constexpr std::size_t kComparisonsPerJob = 256;
/// SOLG RC time constant per accepted integration step: the dimensionless
/// DMM dynamics map onto hardware at ~1 us per unit time (Sec. IV scale).
constexpr Real kDmmStepSeconds = 1e-6;
constexpr Real kSpeedupGate = 1.5;

void sleep_device(Real seconds) {
  std::this_thread::sleep_for(std::chrono::duration<Real>(seconds));
}

oscillator::ComparatorConfig cheap_comparator_config() {
  oscillator::ComparatorConfig cfg;
  cfg.calibration_points = 4;  // keep per-replica calibration quick
  cfg.sim.duration = 40e-6;
  return cfg;
}

/// The default mixed job stream: kJobsPerKind jobs of each paradigm,
/// interleaved, seeded per job so results are reproducible regardless of
/// which worker runs what.
std::vector<std::future<core::JobResult>> submit_mix(sched::Scheduler& s) {
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(3 * kJobsPerKind);
  for (std::size_t i = 0; i < kJobsPerKind; ++i) {
    futures.push_back(s.submit(
        "ghz-" + std::to_string(i), core::AcceleratorKind::kQuantum,
        [i](core::Accelerator& a) {
          auto& dev = dynamic_cast<quantum::QuantumAccelerator&>(a);
          core::Rng rng(1000 + i);
          quantum::Circuit ghz(4);
          ghz.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
          const auto res = dev.run(ghz, kQuantumShots, rng);
          sleep_device(res.device_seconds);
          core::JobResult jr;
          jr.ok = true;
          jr.metrics["device_seconds"] = res.device_seconds;
          return jr;
        }));
    futures.push_back(s.submit(
        "compare-" + std::to_string(i), core::AcceleratorKind::kOscillator,
        [i](core::Accelerator& a) {
          auto& dev = dynamic_cast<oscillator::OscillatorAccelerator&>(a);
          core::Rng rng(2000 + i);
          Real checksum = 0.0;
          for (std::size_t c = 0; c < kComparisonsPerJob; ++c)
            checksum += dev.comparator().distance(rng.uniform(), rng.uniform());
          sleep_device(static_cast<Real>(kComparisonsPerJob) *
                       dev.comparator().comparison_seconds());
          core::JobResult jr;
          jr.ok = checksum >= 0.0;
          jr.metrics["comparisons"] = static_cast<Real>(kComparisonsPerJob);
          return jr;
        }));
    futures.push_back(s.submit(
        "3sat-" + std::to_string(i), core::AcceleratorKind::kMemcomputing,
        [i](core::Accelerator&) {
          core::Rng rng(3000 + i);
          const auto inst = memcomputing::planted_ksat(rng, 16, 67, 3);
          const auto r = memcomputing::DmmSolver(inst.cnf, {}).solve(rng);
          sleep_device(static_cast<Real>(r.steps) * kDmmStepSeconds);
          core::JobResult jr;
          jr.ok = r.satisfied;
          jr.metrics["dmm_steps"] = static_cast<Real>(r.steps);
          return jr;
        }));
  }
  return futures;
}

struct RunResult {
  Real wall_seconds = 0.0;
  Real throughput = 0.0;  ///< jobs / s
  Real wait_p50 = 0.0, wait_p99 = 0.0;
  Real latency_p50 = 0.0, latency_p99 = 0.0;
  std::size_t failed = 0;
};

RunResult run_with_workers(std::size_t workers) {
  telemetry::Telemetry::set_enabled(true);
  telemetry::Telemetry::instance().reset();

  sched::Scheduler scheduler({.queue_capacity = 256});
  scheduler.add_pool(core::AcceleratorKind::kQuantum, workers,
                     quantum::QuantumAccelerator::factory(
                         {.topology = quantum::Topology::line(4)}));
  scheduler.add_pool(
      core::AcceleratorKind::kOscillator, workers,
      oscillator::OscillatorAccelerator::factory(cheap_comparator_config()));
  scheduler.add_pool(core::AcceleratorKind::kMemcomputing, workers,
                     memcomputing::MemcomputingAccelerator::factory());

  const auto start = std::chrono::steady_clock::now();
  auto futures = submit_mix(scheduler);
  RunResult out;
  for (auto& f : futures)
    if (!f.get().ok) ++out.failed;
  scheduler.drain();
  out.wall_seconds = std::chrono::duration<Real>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  out.throughput = static_cast<Real>(futures.size()) / out.wall_seconds;

  const auto& metrics = telemetry::Telemetry::instance().metrics();
  const auto wait = metrics.histogram("sched.wait_seconds");
  const auto latency = metrics.histogram("sched.latency_seconds");
  out.wait_p50 = wait.quantile(0.50);
  out.wait_p99 = wait.quantile(0.99);
  out.latency_p50 = latency.quantile(0.50);
  out.latency_p99 = latency.quantile(0.99);

  scheduler.shutdown();
  telemetry::Telemetry::instance().reset();
  telemetry::Telemetry::set_enabled(false);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("scheduler_saturation", "BENCH_saturation.json", argc,
                       argv);
  core::print_banner(
      std::cout,
      "Scheduler saturation — mixed quantum / oscillator / DMM job stream");
  std::cout << "\n"
            << 3 * kJobsPerKind << " jobs (" << kJobsPerKind
            << " per paradigm); per-kind worker pools of 1, 2, 4; latency "
               "histograms from telemetry\n\n";
  report.param("jobs_per_kind", kJobsPerKind);

  core::Table table({"workers/kind", "wall [s]", "jobs/s", "speedup",
                     "wait p50 [ms]", "wait p99 [ms]", "latency p50 [ms]",
                     "latency p99 [ms]", "failed"},
                    3);
  Real base_throughput = 0.0;
  Real best_speedup = 0.0;
  std::size_t failed = 0;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const auto r = run_with_workers(workers);
    if (workers == 1) base_throughput = r.throughput;
    const Real speedup = r.throughput / base_throughput;
    best_speedup = std::max(best_speedup, speedup);
    failed += r.failed;
    table.add_row({static_cast<std::int64_t>(workers), r.wall_seconds,
                   r.throughput, speedup, r.wait_p50 * 1e3, r.wait_p99 * 1e3,
                   r.latency_p50 * 1e3, r.latency_p99 * 1e3,
                   static_cast<std::int64_t>(r.failed)});
    const std::string at = "_w" + std::to_string(workers);
    report.measure("throughput" + at, "1/s", r.throughput, Better::kHigher);
    report.measure("latency_p99" + at, "ms", r.latency_p99 * 1e3,
                   Better::kLower);
  }
  table.print(std::cout);
  // Device-latency-bound mix: the scheduler's job is keeping replicated
  // devices busy, so throughput scales with workers per kind.
  report.gate("speedup", "x", best_speedup, Better::kHigher, kSpeedupGate);
  report.measure("failed", "count", failed, Better::kLower);
  return report.finish();
}
