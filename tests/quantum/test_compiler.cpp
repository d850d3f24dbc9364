#include "quantum/compiler.h"

#include <gtest/gtest.h>

#include "core/random.h"

namespace rebooting::quantum {
namespace {

bool is_native(const Operation& op) {
  return op.kind == GateKind::kRx || op.kind == GateKind::kRy ||
         op.kind == GateKind::kRz || op.kind == GateKind::kCz ||
         op.kind == GateKind::kMeasure;
}

/// Random test circuit over the full sugar vocabulary.
Circuit random_circuit(core::Rng& rng, std::size_t qubits, std::size_t gates) {
  Circuit c(qubits);
  for (std::size_t g = 0; g < gates; ++g) {
    const auto pick = rng.uniform_index(10);
    const auto q0 = rng.uniform_index(qubits);
    auto q1 = rng.uniform_index(qubits);
    while (q1 == q0) q1 = rng.uniform_index(qubits);
    switch (pick) {
      case 0: c.h(q0); break;
      case 1: c.x(q0); break;
      case 2: c.t(q0); break;
      case 3: c.s(q0); break;
      case 4: c.rx(q0, rng.uniform(-3.0, 3.0)); break;
      case 5: c.ry(q0, rng.uniform(-3.0, 3.0)); break;
      case 6: c.rz(q0, rng.uniform(-3.0, 3.0)); break;
      case 7: c.cx(q0, q1); break;
      case 8: c.cz(q0, q1); break;
      default: c.swap(q0, q1); break;
    }
  }
  return c;
}

/// Compares probability distributions of the source circuit and the compiled
/// circuit after undoing the routing permutation.
void expect_equivalent(const Circuit& source, const CompiledProgram& prog) {
  const StateVector ref = simulate(source);
  const StateVector out = simulate(prog.circuit);
  const auto ref_p = ref.probabilities();
  const auto out_p = out.probabilities();
  for (std::uint64_t logical = 0; logical < ref_p.size(); ++logical) {
    // Map the logical basis state onto the physical qubit labels.
    std::uint64_t physical = 0;
    for (std::size_t l = 0; l < source.num_qubits(); ++l)
      if (logical & (1ull << l)) physical |= 1ull << prog.final_map[l];
    // Sum over the ancilla (unused physical) qubits is unnecessary: they
    // start and stay in |0>.
    EXPECT_NEAR(ref_p[logical], out_p[physical], 1e-9) << "state " << logical;
  }
}

TEST(Topology, Factories) {
  const Topology all = Topology::all_to_all(4);
  EXPECT_TRUE(all.connected(0, 3));
  const Topology line = Topology::line(4);
  EXPECT_TRUE(line.connected(1, 2));
  EXPECT_FALSE(line.connected(0, 3));
  const Topology grid = Topology::grid(2, 3);
  EXPECT_TRUE(grid.connected(0, 3));   // vertical neighbour
  EXPECT_FALSE(grid.connected(0, 4));  // diagonal
}

TEST(Topology, ShortestPathOnLine) {
  const Topology line = Topology::line(6);
  const auto path = line.shortest_path(1, 4);
  EXPECT_EQ(path, (std::vector<std::size_t>{1, 2, 3, 4}));
  EXPECT_EQ(line.shortest_path(2, 2), (std::vector<std::size_t>{2}));
}

TEST(Decompose, OutputsOnlyNativeGates) {
  core::Rng rng(1);
  const Circuit c = random_circuit(rng, 4, 40);
  const Circuit lowered = decompose_to_native(c);
  for (const Operation& op : lowered.operations()) EXPECT_TRUE(is_native(op));
}

TEST(Decompose, PreservesSemanticsUpToGlobalPhase) {
  core::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = random_circuit(rng, 3, 25);
    const Circuit lowered = decompose_to_native(c);
    EXPECT_NEAR(simulate(c).fidelity(simulate(lowered)), 1.0, 1e-9);
  }
}

TEST(Decompose, ToffoliLowersCorrectly) {
  for (unsigned in = 0; in < 8; ++in) {
    Circuit c(3);
    for (std::size_t q = 0; q < 3; ++q)
      if (in & (1u << q)) c.x(q);
    c.ccx(0, 1, 2);
    const Circuit lowered = decompose_to_native(c);
    EXPECT_NEAR(simulate(c).fidelity(simulate(lowered)), 1.0, 1e-9);
  }
}

TEST(Route, AllToAllInsertsNoSwaps) {
  core::Rng rng(5);
  const Circuit c = decompose_to_native(random_circuit(rng, 4, 30));
  const RoutingResult r = route(c, Topology::all_to_all(4));
  EXPECT_EQ(r.swaps_inserted, 0u);
  EXPECT_EQ(r.final_map, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(Route, LineTopologyGetsConnectedGates) {
  Circuit c(4);
  c.cz(0, 3);
  const RoutingResult r = route(decompose_to_native(c), Topology::line(4));
  EXPECT_GT(r.swaps_inserted, 0u);
  const Topology line = Topology::line(4);
  for (const Operation& op : r.circuit.operations()) {
    if (op.qubits.size() == 2) {
      EXPECT_TRUE(line.connected(op.qubits[0], op.qubits[1]))
          << op.to_string();
    }
  }
}

TEST(Route, ThreeQubitGatesRejected) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  EXPECT_THROW(route(c, Topology::all_to_all(3)), std::invalid_argument);
}

TEST(Optimize, CancelsInverseRotations) {
  Circuit c(1);
  c.rz(0, 0.7).rz(0, -0.7).rx(0, 0.2);
  const Circuit opt = optimize(c);
  EXPECT_EQ(opt.size(), 1u);
  EXPECT_EQ(opt.operations()[0].kind, GateKind::kRx);
}

TEST(Optimize, MergesSameAxisRotations) {
  Circuit c(1);
  c.ry(0, 0.3).ry(0, 0.4);
  const Circuit opt = optimize(c);
  ASSERT_EQ(opt.size(), 1u);
  EXPECT_NEAR(opt.operations()[0].angle, 0.7, 1e-12);
}

TEST(Optimize, CancelsAdjacentCzPairs) {
  Circuit c(2);
  c.cz(0, 1).cz(1, 0).rx(0, 0.5);
  const Circuit opt = optimize(c);
  EXPECT_EQ(opt.size(), 1u);
}

TEST(Optimize, InterveningGateBlocksMerge) {
  Circuit c(2);
  c.rz(0, 0.3).cz(0, 1).rz(0, 0.3);
  const Circuit opt = optimize(c);
  EXPECT_EQ(opt.size(), 3u);
}

TEST(Optimize, PreservesSemantics) {
  core::Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = decompose_to_native(random_circuit(rng, 3, 30));
    const Circuit opt = optimize(c);
    EXPECT_NEAR(simulate(c).fidelity(simulate(opt)), 1.0, 1e-9);
    EXPECT_LE(opt.size(), c.size());
  }
}

TEST(Schedule, RespectsDependenciesAndDurations) {
  Circuit c(2);
  c.rx(0, 0.1).cz(0, 1).rx(1, 0.2);
  const Schedule s = schedule_asap(c);
  ASSERT_EQ(s.start_cycle.size(), 3u);
  EXPECT_EQ(s.start_cycle[0], 0u);
  EXPECT_EQ(s.start_cycle[1], 1u);  // waits for rx on q0
  EXPECT_EQ(s.start_cycle[2], 3u);  // waits for cz (2 cycles)
  EXPECT_EQ(s.total_cycles, 4u);
}

TEST(Schedule, IndependentGatesOverlap) {
  Circuit c(2);
  c.rx(0, 0.1).rx(1, 0.2);
  const Schedule s = schedule_asap(c);
  EXPECT_EQ(s.start_cycle[0], 0u);
  EXPECT_EQ(s.start_cycle[1], 0u);
  EXPECT_EQ(s.total_cycles, 1u);
}

class FullPipeline : public ::testing::TestWithParam<bool> {};

TEST_P(FullPipeline, EquivalentOnLineTopology) {
  const bool optimizer = GetParam();
  core::Rng rng(11);
  for (int trial = 0; trial < 4; ++trial) {
    const Circuit c = random_circuit(rng, 4, 25);
    const CompiledProgram prog = compile(c, Topology::line(4), optimizer);
    expect_equivalent(c, prog);
    EXPECT_GT(prog.report.total_cycles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(OptimizerOnOff, FullPipeline, ::testing::Bool());

TEST(FullPipelineGrid, EquivalentOnGridTopology) {
  core::Rng rng(19);
  for (int trial = 0; trial < 3; ++trial) {
    const Circuit c = random_circuit(rng, 6, 30);
    const CompiledProgram prog = compile(c, Topology::grid(2, 3), true);
    expect_equivalent(c, prog);
  }
}

TEST(FullPipelineGrid, GridNeedsFewerSwapsThanLine) {
  // Richer connectivity => cheaper routing, on average.
  core::Rng rng(23);
  std::size_t line_swaps = 0;
  std::size_t grid_swaps = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Circuit c = random_circuit(rng, 6, 40);
    line_swaps += compile(c, Topology::line(6)).report.swaps_inserted;
    grid_swaps += compile(c, Topology::grid(2, 3)).report.swaps_inserted;
  }
  EXPECT_LE(grid_swaps, line_swaps);
}

TEST(FullPipeline, OptimizerNeverIncreasesGateCount) {
  core::Rng rng(13);
  const Circuit c = random_circuit(rng, 4, 40);
  const CompiledProgram raw = compile(c, Topology::line(4), false);
  const CompiledProgram opt = compile(c, Topology::line(4), true);
  EXPECT_LE(opt.report.optimized_gates, raw.report.optimized_gates);
}

TEST(FullPipeline, ReportCountsConsistent) {
  core::Rng rng(17);
  const Circuit c = random_circuit(rng, 3, 20);
  const CompiledProgram prog = compile(c, Topology::line(3));
  EXPECT_EQ(prog.report.source_gates, c.size());
  EXPECT_EQ(prog.report.optimized_gates, prog.circuit.size());
  EXPECT_EQ(prog.report.total_cycles, prog.schedule.total_cycles);
}

}  // namespace
}  // namespace rebooting::quantum
