// Fault-injector overhead bench — gates the cost discipline documented in
// core/faults.h with a machine-readable BENCH_faults.json.
//
// Two claims are gated:
//
//   1. A disabled injector (null plan, or a plan that does not cover the
//      wrapped kind) costs < 2 ns per on_attempt() call — one pointer load
//      and a branch — so production pools can keep the decorator compiled in
//      and flip it on purely via REBOOTING_FAULTS.
//   2. An enabled injector costs < 250 ns per verdict (one relaxed atomic
//      increment + a counter-based Rng::stream split + three uniforms) — a
//      chaos run measures the *scheduler's* resilience, not the injector's
//      own drag.
//
// Methodology: identical to bench/trace_overhead.cpp — kPasses passes of
// kCallsPerPass real on_attempt() calls, minimum pass reported, empty-loop
// baseline with the same volatile sink subtracted, asm memory clobber after
// each call so the disabled-path branch cannot be hoisted.
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "core/accelerator.h"
#include "core/faults.h"

using namespace rebooting;
using bench::Better;
using core::Real;

namespace {

constexpr std::size_t kCallsPerPass = 200000;
constexpr std::size_t kPasses = 25;
constexpr Real kDisabledGateNs = 2.0;
constexpr Real kEnabledGateNs = 250.0;

template <typename Body>
Real min_pass_ns(const Body& body) {
  return bench::min_pass_ns(kPasses, kCallsPerPass, body);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("fault_overhead", "BENCH_faults.json", argc, argv);
  core::print_banner(std::cout,
                     "Fault injector overhead — disabled / enabled path cost");
  report.param("calls_per_pass", kCallsPerPass);
  report.param("passes", kPasses);

  // The three decorators under test share one inner accelerator type; the
  // sink keeps the verdicts observable.
  core::FaultyAccelerator null_plan(std::make_shared<core::CpuAccelerator>(),
                                    nullptr);
  core::FaultPlan other_kind_plan;
  other_kind_plan.kinds[core::AcceleratorKind::kQuantum]
      .transient_probability = 0.5;
  core::FaultyAccelerator non_covering(
      std::make_shared<core::CpuAccelerator>(),
      std::make_shared<const core::FaultPlan>(other_kind_plan));
  core::FaultPlan cpu_plan;
  cpu_plan.seed = 42;
  cpu_plan.kinds[core::AcceleratorKind::kClassicalCpu]
      .transient_probability = 0.2;
  cpu_plan.kinds[core::AcceleratorKind::kClassicalCpu]
      .corruption_probability = 0.05;
  core::FaultyAccelerator enabled(
      std::make_shared<core::CpuAccelerator>(),
      std::make_shared<const core::FaultPlan>(cpu_plan));

  volatile int sink = 0;

  const Real baseline_ns = min_pass_ns([&](std::size_t) { sink = sink + 1; });
  report.measure("baseline", "ns", baseline_ns, Better::kLower);
  const auto gate = [&](const char* metric, core::FaultyAccelerator& injector,
                        Real bound) {
    const Real ns = min_pass_ns([&](std::size_t i) {
      sink = static_cast<int>(injector.on_attempt(i, 1).kind);
    });
    report.gate(metric, "ns", ns - baseline_ns, Better::kLower, bound);
  };
  gate("disabled_null_plan", null_plan, kDisabledGateNs);
  gate("disabled_non_covering", non_covering, kDisabledGateNs);
  gate("enabled_verdict", enabled, kEnabledGateNs);
  report.param("verdicts_drawn", enabled.calls());

  return report.finish();
}
