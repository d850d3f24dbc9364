// Cross-module integration tests: the Fig. 1 heterogeneous host (the
// scheduler) dispatching real jobs to all three paradigm engines, and end-to-end flows that cross
// module boundaries (vision -> oscillator, Ising -> CNF -> DMM, circuit ->
// QISA -> compiler -> device).
#include <gtest/gtest.h>

#include <memory>

#include "core/accelerator.h"
#include "memcomputing/accelerator.h"
#include "memcomputing/dmm.h"
#include "memcomputing/ising.h"
#include "memcomputing/sat.h"
#include "memcomputing/solg.h"
#include "oscillator/comparator.h"
#include "quantum/algorithms.h"
#include "quantum/qisa.h"
#include "quantum/runtime.h"
#include "scheduler/scheduler.h"
#include "vision/oscillator_fast.h"
#include "vision/power.h"

namespace rebooting {
namespace {

using core::AcceleratorKind;
using core::JobResult;

oscillator::ComparatorConfig small_comparator_config() {
  oscillator::ComparatorConfig cfg;
  cfg.calibration_points = 6;
  cfg.sim.duration = 60e-6;
  cfg.sim.dt = 1e-9;
  cfg.sim.sample_stride = 4;
  return cfg;
}

TEST(Integration, HeterogeneousHostRunsAllThreeParadigms) {
  // The Fig. 1 host: one single-worker pool per paradigm. Each job is
  // submitted and awaited in turn, so the shared rng is drawn in a fixed
  // order.
  sched::Scheduler host;
  host.add_pool(AcceleratorKind::kQuantum, 1,
                quantum::QuantumAccelerator::factory(
                    {.topology = quantum::Topology::line(4)}));
  host.add_pool(AcceleratorKind::kOscillator, 1,
                oscillator::OscillatorAccelerator::factory(
                    small_comparator_config()));
  host.add_pool(AcceleratorKind::kMemcomputing, 1,
                memcomputing::MemcomputingAccelerator::factory());

  core::Rng rng(42);

  // Quantum job: Bell pair through the full stack.
  const JobResult qres =
      host.submit("bell-pair", AcceleratorKind::kQuantum,
                  [&](core::Accelerator& a) {
                    auto& quantum = static_cast<quantum::QuantumAccelerator&>(a);
                    quantum::Circuit bell(4);
                    bell.h(0).cx(0, 3);
                    const auto res = quantum.run(bell, 500, rng);
                    JobResult jr;
                    jr.ok = true;
                    jr.metrics["swaps"] = static_cast<core::Real>(
                        res.compile_report.swaps_inserted);
                    jr.metrics["correlated"] =
                        res.frequency(0b0000) + res.frequency(0b1001);
                    return jr;
                  })
          .get();
  EXPECT_TRUE(qres.ok);
  EXPECT_NEAR(qres.metrics.at("correlated"), 1.0, 1e-9);

  // Oscillator job: one analog comparison.
  const JobResult ores =
      host.submit("pixel-compare", AcceleratorKind::kOscillator,
                  [](core::Accelerator& a) {
                    const auto& comparator =
                        static_cast<oscillator::OscillatorAccelerator&>(a)
                            .comparator();
                    JobResult jr;
                    jr.ok = true;
                    jr.metrics["d_far"] = comparator.distance(0.1, 0.9);
                    jr.metrics["d_eq"] = comparator.distance(0.4, 0.4);
                    return jr;
                  })
          .get();
  EXPECT_GT(ores.metrics.at("d_far"), ores.metrics.at("d_eq"));

  // Memcomputing job: solve a planted 3-SAT instance.
  const JobResult mres =
      host.submit("planted-3sat", AcceleratorKind::kMemcomputing,
                  [&](core::Accelerator&) {
                    const auto inst =
                        memcomputing::planted_ksat(rng, 40, 170, 3);
                    const auto r =
                        memcomputing::DmmSolver(inst.cnf, {}).solve(rng);
                    JobResult jr;
                    jr.ok = r.satisfied;
                    jr.metrics["steps"] = static_cast<core::Real>(r.steps);
                    return jr;
                  })
          .get();
  EXPECT_TRUE(mres.ok);

  EXPECT_EQ(host.stats().submitted, 3u);
  EXPECT_EQ(host.stats(AcceleratorKind::kQuantum).jobs_completed, 1u);
  const std::string desc = host.describe();
  EXPECT_NE(desc.find("Quantum accelerator"), std::string::npos);
  EXPECT_NE(desc.find("oscillator"), std::string::npos);
}

TEST(Integration, VisionPipelineAgreesAndAccountsEnergy) {
  core::Rng rng(7);
  const oscillator::OscillatorComparator comparator(small_comparator_config());
  const vision::Scene scene = vision::make_rectangle_scene(rng, 64, 64, 2, 0.6);

  const auto sw = vision::fast_detect(scene.image, {});
  vision::OscillatorFastStats stats;
  const vision::OscillatorFastDetector det(comparator, {});
  const auto hw = det.detect(scene.image, &stats);

  std::vector<vision::Pixel> sw_px, hw_px;
  for (const auto& d : sw) sw_px.push_back(d.position);
  for (const auto& d : hw) hw_px.push_back(d.position);
  const auto agreement = vision::score_detections(hw_px, sw_px, 2.0);
  EXPECT_GT(agreement.f1(), 0.8);

  const auto energy = vision::frame_energy(comparator, stats);
  EXPECT_GT(energy.oscillator_joules, 0.0);
  EXPECT_GT(energy.cmos_joules, 0.0);
}

TEST(Integration, IsingGroundStateViaCnfAndDmmMatchesAnnealer) {
  core::Rng rng(11);
  const auto inst = memcomputing::make_frustrated_loops(rng, 5, 6);
  const auto cnf = memcomputing::ising_to_cnf(inst.model);
  memcomputing::DmmOptions opts;
  opts.maxsat_mode = true;
  opts.max_steps = 40000;
  const auto dmm = memcomputing::DmmSolver(cnf, opts).solve(rng);
  const core::Real dmm_energy =
      memcomputing::cnf_assignment_energy(inst.model, dmm.assignment);

  memcomputing::AnnealOptions aopts;
  aopts.sweeps = 4000;
  aopts.restarts = 3;
  const auto sa = memcomputing::simulated_annealing(inst.model, rng, aopts);

  EXPECT_NEAR(dmm_energy, inst.ground_energy, 1e-9);
  EXPECT_GE(sa.best_energy, inst.ground_energy - 1e-9);
}

TEST(Integration, QisaTextThroughCompilerAndDevice) {
  core::Rng rng(13);
  const quantum::Circuit program = quantum::assemble(
      "qubits 3\n"
      "h q0\n"
      "cx q0 q1\n"
      "cx q1 q2\n");
  quantum::QuantumAccelerator acc(
      {.topology = quantum::Topology::line(3)});
  const auto res = acc.run(program, 1000, rng);
  // GHZ state: only all-zeros and all-ones observed.
  EXPECT_NEAR(res.frequency(0b000) + res.frequency(0b111), 1.0, 1e-12);
}

TEST(Integration, SolgFactorizationConfirmedByShor) {
  core::Rng rng(17);
  // Same semiprime factored by both non-von-Neumann routes.
  const auto solg = memcomputing::solg_factor(35, 3, 3, rng);
  const auto shor = quantum::shor_factor(35, rng);
  ASSERT_TRUE(solg.found);
  ASSERT_TRUE(shor.success);
  const auto lo_solg = std::min(solg.a, solg.b);
  const auto lo_shor = std::min(shor.factor1, shor.factor2);
  EXPECT_EQ(lo_solg, lo_shor);
  EXPECT_EQ(lo_solg, 5u);
}

TEST(Integration, DmmBeatsExhaustiveBlowupOnModerateInstance) {
  // Not a benchmark, just the qualitative Sec. IV story on one instance: the
  // DMM solves a planted instance whose DPLL tree already needs far more
  // decisions than the DMM takes integration steps.
  core::Rng rng(19);
  const auto inst = memcomputing::planted_ksat(rng, 120, 510, 3);
  const auto dmm = memcomputing::DmmSolver(inst.cnf, {}).solve(rng);
  ASSERT_TRUE(dmm.satisfied);
  EXPECT_TRUE(inst.cnf.satisfied(dmm.assignment));
}

}  // namespace
}  // namespace rebooting
