// Micro-kernel timings (google-benchmark): the elementary operations each
// simulated substrate is built from. Useful for regression-tracking the
// engines' inner loops.
#include <benchmark/benchmark.h>

#include <string>

#include "core/random.h"
#include "memcomputing/dmm.h"
#include "memcomputing/sat.h"
#include "oscillator/network.h"
#include "quantum/circuit.h"
#include "telemetry/telemetry.h"

using namespace rebooting;

namespace {

// The state-vector gate kernels, one gate per iteration cycling over the
// target qubit. Items are amplitudes, so items/s inverts to ns per amplitude
// per gate: Hadamard takes the dense path, Rz the diagonal path, and CZ the
// controlled path (diagonal, a quarter of the amplitudes touched).
template <typename Gate>
void run_gate_bench(benchmark::State& state, Gate&& gate) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  quantum::StateVector sv(qubits);
  // Start from a dense state, as a mid-circuit state is.
  for (std::size_t q = 0; q < qubits; ++q)
    sv.apply_1q(quantum::gate_matrix(quantum::GateKind::kH), q);
  std::size_t target = 0;
  for (auto _ : state) {
    gate(sv, target);
    target = (target + 1) % qubits;
    benchmark::DoNotOptimize(sv.amplitude(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(1ull << qubits));
}

void BM_StateVectorHadamard(benchmark::State& state) {
  const auto h = quantum::gate_matrix(quantum::GateKind::kH);
  run_gate_bench(state, [&](quantum::StateVector& sv, std::size_t target) {
    sv.apply_1q(h, target);
  });
}
BENCHMARK(BM_StateVectorHadamard)->Arg(10)->Arg(16)->Arg(20);

void BM_StateVectorRz(benchmark::State& state) {
  const auto rz = quantum::gate_matrix(quantum::GateKind::kRz, 0.7);
  run_gate_bench(state, [&](quantum::StateVector& sv, std::size_t target) {
    sv.apply_1q(rz, target);
  });
}
BENCHMARK(BM_StateVectorRz)->Arg(10)->Arg(16)->Arg(20);

void BM_StateVectorCz(benchmark::State& state) {
  const auto qubits = static_cast<std::size_t>(state.range(0));
  const auto z = quantum::gate_matrix(quantum::GateKind::kZ);
  run_gate_bench(state, [&](quantum::StateVector& sv, std::size_t target) {
    const std::size_t control[] = {(target + 1) % qubits};
    sv.apply_controlled(z, control, target);
  });
}
BENCHMARK(BM_StateVectorCz)->Arg(10)->Arg(16)->Arg(20);

// The DMM step: one sweep over every clause plus the Euler update. Items are
// clause-steps (steps x clauses), the unit of perfbench's
// dmm.ns_per_clause_step, so items/s inverts to ns per clause-step. The
// label names the step loop's lane count: the one this CPU dispatches to,
// or 2 for a twin that runs the baseline build on any CPU.
void run_dmm_bench(benchmark::State& state, const memcomputing::Cnf& cnf,
                   const memcomputing::DmmOptions& opts,
                   std::size_t lanes = memcomputing::detail::dmm_lanes()) {
  const memcomputing::DmmSolver solver = memcomputing::detail::dmm_with_lanes(
      memcomputing::DmmSolver(cnf, opts), lanes);
  state.SetLabel(std::to_string(lanes) + " lanes");
  std::int64_t clause_steps = 0;
  for (auto _ : state) {
    core::Rng r(7);
    const auto result = solver.solve(r);
    clause_steps += static_cast<std::int64_t>(result.steps * cnf.num_clauses());
    benchmark::DoNotOptimize(result.steps);
  }
  state.SetItemsProcessed(clause_steps);
}

// Planted 3-SAT at ratio 4.25; a run may solve before its 200-step budget,
// so the steps actually taken are counted.
void BM_DmmStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::Rng rng(1);
  const auto inst = memcomputing::planted_ksat(
      rng, n, static_cast<std::size_t>(4.25 * static_cast<double>(n)), 3);
  memcomputing::DmmOptions opts;
  opts.max_steps = 200;
  run_dmm_bench(state, inst.cnf, opts);
}
BENCHMARK(BM_DmmStep)->Arg(50)->Arg(200);

// rebootd's `sat` shape (random 3-SAT, 50 vars, 200 clauses). maxsat_mode
// never stops early, so every iteration runs the same 2,000 steps.
void run_dmm_rebootd_bench(benchmark::State& state, std::size_t lanes) {
  core::Rng rng(1001);
  const auto cnf = memcomputing::random_ksat(rng, 50, 200, 3);
  memcomputing::DmmOptions opts;
  opts.max_steps = 2000;
  opts.maxsat_mode = true;
  run_dmm_bench(state, cnf, opts, lanes);
}
void BM_DmmStepRebootd(benchmark::State& state) {
  run_dmm_rebootd_bench(state, memcomputing::detail::dmm_lanes());
}
BENCHMARK(BM_DmmStepRebootd);
void BM_DmmStepRebootd2Lanes(benchmark::State& state) {
  run_dmm_rebootd_bench(state, 2);
}
BENCHMARK(BM_DmmStepRebootd2Lanes);

void BM_OscillatorNetworkStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, n);
  for (std::size_t i = 0; i + 1 < n; ++i)
    net.add_coupling({.a = i, .b = i + 1, .r = 15e3, .c = 1e-12});
  oscillator::SimulationOptions so;
  so.duration = 1e-6;
  so.dt = 1e-9;
  so.sample_stride = 1000;
  for (auto _ : state) {
    const auto trace = net.simulate(so);
    benchmark::DoNotOptimize(trace.samples());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_OscillatorNetworkStep)->Arg(2)->Arg(8)->Arg(16);

// Overhead of the telemetry instrumentation in its default (disabled) state:
// one relaxed atomic load + branch per TELEM_SPAN site. Spans stay off
// per-gate device code all the same: an enabled span (below) costs about as
// much as a whole gate on a 6-qubit state and serializes on the span mutex,
// so the quantum runtime counts gates once per run instead.
void BM_TelemetrySpanDisabled(benchmark::State& state) {
  telemetry::Telemetry::set_enabled(false);
  int sink = 0;
  for (auto _ : state) {
    TELEM_SPAN("bench.noop");
    benchmark::DoNotOptimize(++sink);
  }
}
BENCHMARK(BM_TelemetrySpanDisabled);

// Cost of a live span (two clock reads + locked tree update) — the price an
// engine pays per instrumented call while a report is being collected.
void BM_TelemetrySpanEnabled(benchmark::State& state) {
  telemetry::Telemetry::set_enabled(true);
  int sink = 0;
  for (auto _ : state) {
    TELEM_SPAN("bench.noop");
    benchmark::DoNotOptimize(++sink);
  }
  telemetry::Telemetry::set_enabled(false);
  telemetry::Telemetry::instance().reset();
}
BENCHMARK(BM_TelemetrySpanEnabled);

void BM_WalkSatFlips(benchmark::State& state) {
  core::Rng rng(3);
  const auto inst = memcomputing::planted_ksat(rng, 100, 425, 3);
  for (auto _ : state) {
    memcomputing::WalkSatOptions opts;
    opts.max_flips = 2000;
    core::Rng r(5);
    auto result = memcomputing::walksat(inst.cnf, r, opts);
    benchmark::DoNotOptimize(result.flips);
  }
}
BENCHMARK(BM_WalkSatFlips);

}  // namespace

BENCHMARK_MAIN();
