// Trace-recorder overhead bench — gates the cost discipline documented in
// telemetry/trace.h with a machine-readable BENCH_trace.json.
//
// Two claims are gated:
//
//   1. Disabled tracing costs < 2 ns per instrumented point (one relaxed
//      atomic load + branch) — instrumentation can stay compiled into the
//      engines' hot loops.
//   2. Enabled tracing costs < 100 ns per event (steady_clock read + one
//      48-byte ring slot store; no locks, no allocation) — a timeline
//      capture does not distort the workload it is observing.
//
// Methodology: each measured loop runs kEventsPerPass macro expansions of
// the real TELEM_TRACE_* macros (not hand-inlined copies, so the gate tracks
// whatever the header actually does), repeated over kPasses passes; we
// report the *minimum* pass (least scheduler noise), as is conventional for
// nanosecond-scale micro-benches. An empty-loop baseline with the same
// volatile accumulator is subtracted so loop overhead is not billed to the
// recorder. An asm memory clobber after each event keeps the compiler from
// hoisting or collapsing the disabled-path checks.
#include <iostream>

#include "bench_util.h"
#include "telemetry/trace.h"
#include "telemetry/telemetry.h"

using namespace rebooting;
using bench::Better;
using core::Real;

namespace {

constexpr std::size_t kEventsPerPass = 200000;
constexpr std::size_t kPasses = 25;
constexpr Real kDisabledGateNs = 2.0;
constexpr Real kEnabledGateNs = 100.0;

template <typename Body>
Real min_pass_ns(const Body& body) {
  return bench::min_pass_ns(kPasses, kEventsPerPass, body);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("trace_overhead", "BENCH_trace.json", argc, argv);
  core::print_banner(std::cout,
                     "Trace recorder overhead — disabled / enabled path cost");
  report.param("events_per_pass", kEventsPerPass);
  report.param("passes", kPasses);

  auto& recorder = telemetry::TraceRecorder::instance();

  const Real baseline_ns = min_pass_ns([](std::size_t) {});
  report.measure("baseline", "ns", baseline_ns, Better::kLower);
  const auto gate = [&](const char* metric, Real ns, Real bound) {
    report.gate(metric, "ns", ns, Better::kLower, bound);
  };

  // Disabled path: the macro's whole cost is trace_enabled().
  telemetry::TraceRecorder::set_enabled(false);
  recorder.reset();
  gate("disabled_instant",
       min_pass_ns([](std::size_t) { TELEM_TRACE_INSTANT("bench.off"); }) -
           baseline_ns,
       kDisabledGateNs);
  gate("disabled_scope",
       min_pass_ns([](std::size_t) { TELEM_TRACE_SCOPE("bench.off.scope"); }) -
           baseline_ns,
       kDisabledGateNs);

  // Enabled path: clock read + ring store. The ring wraps millions of times
  // over the run — by design; overwrite-oldest is the steady state.
  telemetry::TraceRecorder::set_enabled(true);
  gate("enabled_instant",
       min_pass_ns([](std::size_t) { TELEM_TRACE_INSTANT("bench.on"); }) -
           baseline_ns,
       kEnabledGateNs);
  gate("enabled_counter",
       min_pass_ns([](std::size_t i) {
         TELEM_TRACE_COUNTER("bench.on.counter", i);
       }) - baseline_ns,
       kEnabledGateNs);
  // A scope is two events (B + E): report per-event cost.
  gate("enabled_scope",
       (min_pass_ns([](std::size_t) { TELEM_TRACE_SCOPE("bench.on.scope"); }) -
        baseline_ns) /
           2.0,
       kEnabledGateNs);
  const auto rings = recorder.snapshot();
  report.param("events_recorded", rings.empty() ? 0.0 : rings[0].written);
  telemetry::TraceRecorder::set_enabled(false);
  recorder.reset();

  return report.finish();
}
