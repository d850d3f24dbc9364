// E10 — Fig. 1/2 reproduction: the quantum accelerator as one device pool of
// the heterogeneous host (sched::Scheduler), with the full stack
// (application -> algorithm -> compiler -> QISA -> microarchitecture ->
// device) reporting per-layer statistics for representative workloads, plus
// the compiler ablation (topology and optimizer) called out in DESIGN.md.
#include <iostream>

#include "core/table.h"
#include "quantum/algorithms.h"
#include "quantum/qisa.h"
#include "quantum/runtime.h"
#include "scheduler/scheduler.h"

using namespace rebooting;
using namespace rebooting::quantum;

namespace {

Circuit ghz_circuit(std::size_t n) {
  Circuit c(n);
  c.h(0);
  for (std::size_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  return c;
}

Circuit qft_workload(std::size_t n) {
  Circuit c(n);
  for (std::size_t q = 0; q < n; ++q) c.h(q);
  c.append(qft_circuit(n));
  return c;
}

}  // namespace

int main() {
  core::print_banner(std::cout,
                     "E10 / Fig. 1+2 — quantum accelerator stack in the "
                     "heterogeneous host");

  // One quantum worker; each workload is submitted and awaited in turn, so
  // the shared rng is drawn in workload order.
  core::Rng rng(8);
  sched::Scheduler host;
  host.add_pool(core::AcceleratorKind::kQuantum, 1,
                QuantumAccelerator::factory({.topology = Topology::line(8)}));

  struct Workload {
    const char* name;
    Circuit circuit;
  };
  const std::vector<Workload> workloads = {
      {"GHZ-8", ghz_circuit(8)},
      {"QFT-6", qft_workload(6)},
      {"Bell distant (q0,q7)", [] {
         Circuit c(8);
         c.h(0).cx(0, 7);
         return c;
       }()},
  };

  core::Table table({"workload", "source gates", "native gates", "swaps",
                     "optimized gates", "depth", "device cycles",
                     "device time/shot [us]"},
                    2);
  for (const auto& [name, circuit] : workloads) {
    const auto payload = [&](core::Accelerator& accel) {
      const ExecutionResult res =
          static_cast<QuantumAccelerator&>(accel).run(circuit, 256, rng);
      core::JobResult jr;
      jr.ok = true;
      jr.metrics["compile.source_gates"] =
          static_cast<core::Real>(res.compile_report.source_gates);
      jr.metrics["compile.routed_gates"] =
          static_cast<core::Real>(res.compile_report.routed_gates);
      jr.metrics["compile.swaps"] =
          static_cast<core::Real>(res.compile_report.swaps_inserted);
      jr.metrics["compile.optimized_gates"] =
          static_cast<core::Real>(res.compile_report.optimized_gates);
      jr.metrics["compile.depth"] =
          static_cast<core::Real>(res.compile_report.final_depth);
      jr.metrics["device.cycles"] =
          static_cast<core::Real>(res.compile_report.total_cycles);
      jr.metrics["device.seconds_per_shot"] =
          res.device_seconds / static_cast<core::Real>(res.shots);
      return jr;
    };
    const core::JobResult jr =
        host.submit(name, core::AcceleratorKind::kQuantum, payload).get();
    table.add_row(
        {std::string(name),
         static_cast<std::int64_t>(jr.metrics.at("compile.source_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.routed_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.swaps")),
         static_cast<std::int64_t>(jr.metrics.at("compile.optimized_gates")),
         static_cast<std::int64_t>(jr.metrics.at("compile.depth")),
         static_cast<std::int64_t>(jr.metrics.at("device.cycles")),
         jr.metrics.at("device.seconds_per_shot") * 1e6});
  }
  std::cout << "\nPer-layer statistics on a line-topology device:\n";
  table.print(std::cout);

  std::cout << '\n' << host.describe();

  core::print_banner(std::cout,
                     "Ablation — routing topology and optimizer (QFT-6)");
  core::Table ab({"topology", "optimizer", "gates", "swaps", "cycles"}, 1);
  const Circuit qft6 = qft_workload(6);
  struct Cfg {
    const char* name;
    Topology topo;
    bool opt;
  };
  for (const Cfg& cfg : {Cfg{"all-to-all", Topology::all_to_all(6), true},
                         Cfg{"line", Topology::line(6), true},
                         Cfg{"line", Topology::line(6), false},
                         Cfg{"grid 2x3", Topology::grid(2, 3), true}}) {
    const CompiledProgram prog = compile(qft6, cfg.topo, cfg.opt);
    ab.add_row({std::string(cfg.name), std::string(cfg.opt ? "on" : "off"),
                static_cast<std::int64_t>(prog.report.optimized_gates),
                static_cast<std::int64_t>(prog.report.swaps_inserted),
                static_cast<std::int64_t>(prog.report.total_cycles)});
  }
  ab.print(std::cout);
  std::cout << "(QFT-6 has no adjacent-cancel redundancy, so the peephole "
               "pass is a no-op there.)\n";

  // A workload the optimizer does bite on: interleaved H-pairs and
  // back-to-back CZs, typical of naive oracle constructions.
  Circuit redundant(4);
  for (int rep = 0; rep < 6; ++rep) {
    redundant.h(0).h(0).cz(1, 2).cz(1, 2).t(3).tdg(3).rx(1, 0.4).rx(1, -0.4);
  }
  const CompiledProgram raw = compile(redundant, Topology::line(4), false);
  const CompiledProgram opt = compile(redundant, Topology::line(4), true);
  std::cout << "Redundant workload: " << raw.report.optimized_gates
            << " native gates unoptimized -> " << opt.report.optimized_gates
            << " optimized (" << raw.report.total_cycles << " -> "
            << opt.report.total_cycles << " cycles)\n";

  core::print_banner(std::cout, "QISA layer — assembled program sample (GHZ-3)");
  std::cout << disassemble(decompose_to_native(ghz_circuit(3)));
  return 0;
}
