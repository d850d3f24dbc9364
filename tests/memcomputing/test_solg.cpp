#include "memcomputing/solg.h"

#include <gtest/gtest.h>

#include "memcomputing/sat.h"

namespace rebooting::memcomputing {
namespace {

TEST(GateTruth, AllGatesMatchDefinitions) {
  EXPECT_TRUE(gate_truth(GateType::kAnd, true, true));
  EXPECT_FALSE(gate_truth(GateType::kAnd, true, false));
  EXPECT_TRUE(gate_truth(GateType::kOr, false, true));
  EXPECT_FALSE(gate_truth(GateType::kOr, false, false));
  EXPECT_TRUE(gate_truth(GateType::kXor, true, false));
  EXPECT_FALSE(gate_truth(GateType::kXor, true, true));
  EXPECT_FALSE(gate_truth(GateType::kNand, true, true));
  EXPECT_TRUE(gate_truth(GateType::kNor, false, false));
  EXPECT_TRUE(gate_truth(GateType::kXnor, true, true));
  EXPECT_TRUE(gate_truth(GateType::kNot, false, false));
  EXPECT_FALSE(gate_truth(GateType::kNot, true, false));
}

TEST(Circuit, CheckValidatesGateRelations) {
  SolgCircuit c;
  const auto a = c.add_net();
  const auto b = c.add_net();
  const auto o = c.add_net();
  c.add_gate(GateType::kAnd, {a, b, o});
  EXPECT_TRUE(c.check({true, true, true}));
  EXPECT_FALSE(c.check({true, true, false}));
  EXPECT_TRUE(c.check({false, true, false}));
}

TEST(Circuit, RejectsBadGateWiring) {
  SolgCircuit c;
  const auto a = c.add_net();
  EXPECT_THROW(c.add_gate(GateType::kAnd, {a, a}), std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateType::kNot, {a, 99}), std::invalid_argument);
}

class TseitinGateTest : public ::testing::TestWithParam<GateType> {};

TEST_P(TseitinGateTest, CnfMatchesTruthTableExactly) {
  const GateType type = GetParam();
  SolgCircuit c;
  const auto a = c.add_net();
  const std::size_t b = type == GateType::kNot ? a : c.add_net();
  const auto o = c.add_net();
  if (type == GateType::kNot) {
    c.add_gate(type, {a, o});
  } else {
    c.add_gate(type, {a, b, o});
  }
  const Cnf cnf = c.to_cnf();
  const std::size_t nets = c.num_nets();
  for (unsigned mask = 0; mask < (1u << nets); ++mask) {
    std::vector<bool> values(nets);
    Assignment assign(nets + 1, false);
    for (std::size_t i = 0; i < nets; ++i) {
      values[i] = (mask >> i) & 1u;
      assign[i + 1] = values[i];
    }
    EXPECT_EQ(cnf.satisfied(assign), c.check(values))
        << to_string(type) << " mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGates, TseitinGateTest,
                         ::testing::Values(GateType::kAnd, GateType::kOr,
                                           GateType::kNot, GateType::kXor,
                                           GateType::kNand, GateType::kNor,
                                           GateType::kXnor));

TEST(Circuit, PinsBecomeUnitClauses) {
  SolgCircuit c;
  const auto a = c.add_net();
  const auto o = c.add_net();
  c.add_gate(GateType::kNot, {a, o});
  c.pin(a, true);
  const Cnf cnf = c.to_cnf();
  const SatResult r = dpll(cnf);
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(r.assignment[a + 1]);
  EXPECT_FALSE(r.assignment[o + 1]);
}

TEST(Solve, ForwardEvaluationViaDmm) {
  core::Rng rng(1);
  SolgCircuit c;
  const auto x = c.add_net();
  const auto y = c.add_net();
  const auto s = c.add_net();
  const auto carry = c.add_net();
  c.add_gate(GateType::kXor, {x, y, s});
  c.add_gate(GateType::kAnd, {x, y, carry});
  c.pin(x, true);
  c.pin(y, true);
  const SolgResult r = c.solve(rng);
  ASSERT_TRUE(r.consistent);
  EXPECT_FALSE(r.values[s]);
  EXPECT_TRUE(r.values[carry]);
}

TEST(Solve, TerminalAgnosticInversion) {
  // Pin an AND gate's OUTPUT; the inputs must self-organize to (1, 1).
  core::Rng rng(3);
  SolgCircuit c;
  const auto a = c.add_net();
  const auto b = c.add_net();
  const auto o = c.add_net();
  c.add_gate(GateType::kAnd, {a, b, o});
  c.pin(o, true);
  const SolgResult r = c.solve(rng);
  ASSERT_TRUE(r.consistent);
  EXPECT_TRUE(r.values[a]);
  EXPECT_TRUE(r.values[b]);
}

TEST(Solve, NativeRelaxationHandlesSmallCircuits) {
  core::Rng rng(5);
  SolgCircuit c;
  const auto a = c.add_net();
  const auto b = c.add_net();
  const auto o = c.add_net();
  c.add_gate(GateType::kOr, {a, b, o});
  c.pin(o, false);  // forces a = b = 0
  SolgOptions opts;
  opts.engine = SolgEngine::kNativeRelaxation;
  opts.max_steps = 20000;
  const SolgResult r = c.solve(rng, opts);
  ASSERT_TRUE(r.consistent);
  EXPECT_FALSE(r.values[a]);
  EXPECT_FALSE(r.values[b]);
}

TEST(Multiplier, StructureComputesAllProducts) {
  // Digital forward evaluation over every input pair, via the CNF + DPLL
  // (the complete solver acts as the reference evaluator).
  auto mc = build_multiplier(2, 2);
  for (unsigned a = 0; a < 4; ++a) {
    for (unsigned b = 0; b < 4; ++b) {
      for (int i = 0; i < 2; ++i) {
        mc.circuit.pin(mc.a_bits[static_cast<std::size_t>(i)], (a >> i) & 1u);
        mc.circuit.pin(mc.b_bits[static_cast<std::size_t>(i)], (b >> i) & 1u);
      }
      const SatResult r = dpll(mc.circuit.to_cnf());
      ASSERT_TRUE(r.satisfied);
      unsigned prod = 0;
      for (std::size_t i = 0; i < mc.product_bits.size(); ++i)
        if (r.assignment[mc.product_bits[i] + 1]) prod |= 1u << i;
      EXPECT_EQ(prod, a * b);
    }
  }
}

class FactorTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FactorTest, FactorsSemiprimeByInvertedMultiplier) {
  const std::uint64_t n = GetParam();
  core::Rng rng(7);
  const FactorResult fr = solg_factor(n, 3, 3, rng);
  ASSERT_TRUE(fr.found) << "n=" << n;
  EXPECT_EQ(fr.a * fr.b, n);
  EXPECT_GT(fr.a, 1u);
  EXPECT_GT(fr.b, 1u);
}

INSTANTIATE_TEST_SUITE_P(Semiprimes, FactorTest,
                         ::testing::Values(15ull, 21ull, 35ull, 49ull));

TEST(Factor, RejectsOversizedTarget) {
  core::Rng rng(9);
  EXPECT_THROW(solg_factor(1000, 2, 2, rng), std::invalid_argument);
}

TEST(SubsetSum, CircuitStructureEvaluatesSums) {
  // Pin selectors, solve forward via DPLL on the Tseitin CNF, check the sum.
  const std::vector<std::uint64_t> values{3, 5, 6};
  for (unsigned mask = 0; mask < 8; ++mask) {
    SubsetSumCircuit sc = build_subset_sum(values);
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const bool on = (mask >> i) & 1u;
      sc.circuit.pin(sc.selectors[i], on);
      if (on) expected += values[i];
    }
    const SatResult r = dpll(sc.circuit.to_cnf());
    ASSERT_TRUE(r.satisfied);
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < sc.sum_bits.size(); ++j)
      if (r.assignment[sc.sum_bits[j] + 1]) sum |= 1ull << j;
    EXPECT_EQ(sum, expected) << "mask=" << mask;
  }
}

class SubsetSumTest
    : public ::testing::TestWithParam<std::pair<std::uint64_t, bool>> {};

TEST_P(SubsetSumTest, FindsSubsetWhenOneExists) {
  const auto [target, feasible] = GetParam();
  const std::vector<std::uint64_t> values{3, 5, 9, 14, 22};
  core::Rng rng(11);
  SolgOptions opts;
  opts.max_steps = 60'000;
  const SubsetSumResult r = solg_subset_sum(values, target, rng, opts);
  EXPECT_EQ(r.found, feasible) << "target=" << target;
  if (r.found) {
    EXPECT_EQ(r.achieved, target);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Targets, SubsetSumTest,
    ::testing::Values(std::pair{std::uint64_t{17}, true},   // 3+14
                      std::pair{std::uint64_t{31}, true},   // 9+22
                      std::pair{std::uint64_t{53}, true},   // all
                      std::pair{std::uint64_t{0}, true},    // empty subset
                      std::pair{std::uint64_t{1}, false},   // infeasible
                      std::pair{std::uint64_t{2}, false})); // infeasible

TEST(SubsetSum, InputValidation) {
  core::Rng rng(1);
  EXPECT_THROW(build_subset_sum({}), std::invalid_argument);
  EXPECT_THROW(build_subset_sum({0}), std::invalid_argument);
  EXPECT_THROW(solg_subset_sum({3, 5}, 100, rng), std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::memcomputing
