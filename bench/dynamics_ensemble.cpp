// E9 — dynamics-kernel + ensemble-runner acceptance bench.
//
// Two claims are gated here, with a machine-readable BENCH_dynamics.json
// report for CI:
//
//  1. Reproducibility (hard gate on any machine): a 64-restart DMM ensemble
//     produces bit-identical per-restart trajectories and the same winner at
//     1, 2, and hardware_concurrency threads.
//  2. Throughput (gated only where the hardware can show it): the parallel
//     ensemble beats the serial run by >= 3x on >= 8 cores, >= 1.8x on 4-7
//     cores; below 4 cores the speedup record reads "skipped: <reason>".
//
// Plus an ungated stepping microbenchmark: ns per state element of the
// templated kernel path on a pure decay system.
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "memcomputing/dmm.h"
#include "memcomputing/sat.h"

using namespace rebooting;
using namespace rebooting::memcomputing;
using bench::Better;

namespace {

using Clock = std::chrono::steady_clock;

core::Real seconds_since(Clock::time_point start) {
  return std::chrono::duration<core::Real>(Clock::now() - start).count();
}

constexpr std::size_t kRestarts = 64;
constexpr std::uint64_t kSeed = 20260805;

DmmEnsembleResult run_sweep(const DmmSolver& solver, std::size_t threads) {
  DmmEnsembleOptions opts;
  opts.threads = threads;
  // Full budget: every restart runs, so serial and parallel sweeps do the
  // same amount of integration work and the timing ratio is a real speedup.
  opts.stop_on_first_solution = false;
  return solver.solve_ensemble(kRestarts, kSeed, opts);
}

bool sweeps_identical(const DmmEnsembleResult& a, const DmmEnsembleResult& b) {
  if (a.best_index != b.best_index || a.any_satisfied != b.any_satisfied)
    return false;
  for (std::size_t i = 0; i < kRestarts; ++i) {
    if (!a.ran[i] || !b.ran[i]) return false;
    if (a.results[i].steps != b.results[i].steps ||
        a.results[i].sim_time != b.results[i].sim_time ||
        a.results[i].satisfied != b.results[i].satisfied ||
        a.results[i].assignment != b.results[i].assignment)
      return false;
  }
  return true;
}

/// Pure stepping workload: a decay system driven through the templated
/// kernel. Returns ns per RHS-state element.
struct DecayKernel {
  void rhs(core::Real, std::span<const core::Real> y,
           std::span<core::Real> dydt) const {
    for (std::size_t i = 0; i < y.size(); ++i) dydt[i] = -y[i];
  }
};

core::Real stepping_microbench() {
  constexpr std::size_t kDim = 64;
  constexpr core::Real kT1 = 200.0;
  constexpr core::Real kDt = 1e-3;

  DecayKernel kernel;
  core::Workspace ws;
  std::vector<core::Real> y(kDim, 1.0);
  const auto start = Clock::now();
  core::integrate_fixed(kernel, core::Scheme::kHeun, 0.0, kT1, kDt,
                        std::span<core::Real>(y), ws);
  const core::Real kernel_s = seconds_since(start);

  const auto steps = static_cast<core::Real>(kT1 / kDt);
  return kernel_s * 1e9 / (steps * static_cast<core::Real>(kDim));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("dynamics_ensemble", "BENCH_dynamics.json", argc, argv);
  core::print_banner(std::cout,
                     "E9 — static-dispatch kernels & parallel trajectory "
                     "ensembles (64-restart DMM sweep)");

  const std::size_t cores = bench::cores();

  core::Rng gen(424242);
  const auto inst = planted_ksat(gen, 70, 297, 3);
  DmmOptions dopts;
  dopts.max_steps = 60'000;
  const DmmSolver solver(inst.cnf, dopts);

  // Warm-up (first-touch allocation, page faults) outside the timings.
  (void)run_sweep(solver, 1);

  const auto t_serial = Clock::now();
  const DmmEnsembleResult serial = run_sweep(solver, 1);
  const core::Real serial_s = seconds_since(t_serial);

  const auto t_par = Clock::now();
  const DmmEnsembleResult parallel = run_sweep(solver, cores);
  const core::Real parallel_s = seconds_since(t_par);

  const DmmEnsembleResult two = run_sweep(solver, 2);

  report.param("restarts", kRestarts);
  report.param("winner_index", serial.best_index);
  report.measure("serial", "s", serial_s, Better::kLower);
  report.measure("parallel", "s", parallel_s, Better::kLower);
  report.check("reproducible", sweeps_identical(serial, parallel) &&
                                   sweeps_identical(serial, two));

  // A host below 4 cores records an explicit skip, not a pass: the parallel
  // claim was not checked there.
  const core::Real speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  if (cores >= 4)
    report.gate("speedup", "x", speedup, Better::kHigher,
                cores >= 8 ? 3.0 : 1.8);
  else
    report.skip("speedup", "x", speedup, Better::kHigher,
                "only " + std::to_string(cores) +
                    " core(s) visible; gating needs >= 4");
  report.measure("kernel_per_element", "ns", stepping_microbench(),
                 Better::kLower);

  return report.finish();
}
