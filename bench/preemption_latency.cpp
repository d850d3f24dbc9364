// Preemption latency acceptance bench (DESIGN.md §12, exit-gated).
//
// A single-worker CPU pool runs a long low-priority sliced DMM solve
// (~5-20 ms per slice). High-priority jobs submitted while it runs must
// START within one slice budget plus dispatch overhead: the worker notices
// the queued job through the YieldProbe at the next checkpoint, parks the
// solve, and runs the newcomer. The gate is deliberately generous (250 ms
// worst case over several trials) so it only catches a broken preemption
// path — a non-yielding payload would hold the worker for the full solve,
// seconds — never a slow CI runner.
//
// Writes BENCH_preemption.json; exits 1 when the worst start reaches the
// gate or a trial went around the preemption machinery.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "memcomputing/dmm.h"
#include "memcomputing/sat.h"
#include "scheduler/scheduler.h"

using namespace rebooting;
using namespace rebooting::memcomputing;
using bench::Better;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr int kTrials = 5;
constexpr double kGateMs = 250.0;

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("preemption_latency", "BENCH_preemption.json", argc,
                       argv);
  core::print_banner(std::cout,
                     "preemption latency — high-priority start time while a "
                     "sliced DMM solve holds the only worker");

  sched::Scheduler scheduler({.queue_capacity = 16});
  scheduler.add_pool(core::AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());

  // The background workload: repeated checkpointed trajectories of a planted
  // instance, advanced a few thousand steps per slice (~5-20 ms). The slice
  // loop keeps integrating until the probe reports queued higher-priority
  // work, so every trial exercises a genuine mid-solve preemption.
  core::Rng gen(424242);
  const auto inst = planted_ksat(gen, 60, 255, 3);
  DmmOptions dopts;
  dopts.max_steps = 100'000;
  const auto solver = std::make_shared<DmmSolver>(inst.cnf, dopts);

  struct SolveState {
    core::Checkpoint ckpt;
    core::Workspace ws;
    std::uint64_t trajectory = 0;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> slices{0};
  };
  const auto state = std::make_shared<SolveState>();

  auto low = scheduler.submit_preemptible(
      "background-solve", core::AcceleratorKind::kClassicalCpu,
      [solver, state](core::Accelerator&, const sched::YieldProbe& probe)
          -> std::optional<core::JobResult> {
        while (!state->stop.load(std::memory_order_relaxed)) {
          if (state->ckpt.tag.empty()) {
            core::Rng rng = core::Rng::stream(7, state->trajectory++);
            std::vector<core::Real> v0(60);
            for (auto& v : v0) v = rng.uniform(-1.0, 1.0);
            state->ckpt = solver->begin(std::move(v0), rng);
          }
          const DmmSliceOutcome out = solver->advance(
              state->ckpt, core::SliceBudget::steps(4000), state->ws);
          state->slices.fetch_add(1, std::memory_order_relaxed);
          if (out.done) state->ckpt = core::Checkpoint{};  // next trajectory
          if (probe.should_yield()) return std::nullopt;
        }
        core::JobResult r;
        r.ok = true;
        r.summary = "stopped after " +
                    std::to_string(state->slices.load()) + " slices";
        return r;
      });

  // Wait until the solve is actually occupying the worker.
  while (state->slices.load(std::memory_order_relaxed) == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<double> latencies_ms;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto submitted = Clock::now();
    auto high = scheduler.submit(
        core::Job{"probe-" + std::to_string(trial),
                  core::AcceleratorKind::kClassicalCpu,
                  [] {
                    core::JobResult r;
                    r.ok = true;
                    return r;
                  }},
        [] {
          sched::JobOptions opts;
          opts.priority = 9;
          return opts;
        }());
    const core::JobResult r = high.get();
    const double latency = ms_between(submitted, Clock::now());
    if (!r.ok) {
      std::cerr << "high-priority probe failed: " << r.summary << '\n';
      return 1;
    }
    latencies_ms.push_back(latency);
    // Let the background solve resume and re-occupy the worker.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  state->stop.store(true);
  const core::JobResult low_result = low.get();

  double worst = 0.0, sum = 0.0;
  for (const double l : latencies_ms) {
    worst = std::max(worst, l);
    sum += l;
  }
  const sched::SchedulerStats stats = scheduler.stats();
  std::cout << "\nbackground solve: " << low_result.summary << '\n';
  report.param("trials", kTrials);
  report.param("slices", stats.slices);
  report.param("resumes", stats.resumes);
  report.measure("mean_start", "ms",
                 sum / static_cast<double>(latencies_ms.size()),
                 Better::kLower);
  report.gate("worst_start", "ms", worst, Better::kLower, kGateMs);
  // Sanity: every trial must have gone through the preemption machinery.
  report.gate("preempts", "count", stats.preempts, Better::kHigher, kTrials);
  return report.finish();
}
