#include "quantum/state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "quantum/circuit.h"

namespace rebooting::quantum {
namespace {

// The original scalar gate loops, kept as the reference the pair-enumerating
// kernels must reproduce amplitude for amplitude.
void reference_apply_1q(std::vector<Complex>& amps, const Gate2x2& g,
                        std::size_t target) {
  const std::uint64_t bit = 1ull << target;
  const std::uint64_t dim = amps.size();
  for (std::uint64_t base = 0; base < dim; ++base) {
    if (base & bit) continue;  // visit each pair once, from its |0> member
    const std::uint64_t other = base | bit;
    const Complex a0 = amps[base];
    const Complex a1 = amps[other];
    amps[base] = g.m00 * a0 + g.m01 * a1;
    amps[other] = g.m10 * a0 + g.m11 * a1;
  }
}

void reference_apply_controlled(std::vector<Complex>& amps, const Gate2x2& g,
                                std::span<const std::size_t> controls,
                                std::size_t target) {
  std::uint64_t cmask = 0;
  for (const std::size_t c : controls) cmask |= 1ull << c;
  const std::uint64_t bit = 1ull << target;
  const std::uint64_t dim = amps.size();
  for (std::uint64_t base = 0; base < dim; ++base) {
    if (base & bit) continue;
    if ((base & cmask) != cmask) continue;
    const std::uint64_t other = base | bit;
    const Complex a0 = amps[base];
    const Complex a1 = amps[other];
    amps[base] = g.m00 * a0 + g.m01 * a1;
    amps[other] = g.m10 * a0 + g.m11 * a1;
  }
}

/// Index of the first amplitude whose real or imaginary part differs under
/// ==, or -1. (== treats -0.0 and +0.0 as equal, the one freedom the
/// diagonal kernel takes.)
long first_mismatch(const StateVector& s, const std::vector<Complex>& ref) {
  const auto amps = s.amplitudes();
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (!(amps[i].real() == ref[i].real() && amps[i].imag() == ref[i].imag()))
      return static_cast<long>(i);
  return -1;
}

Complex random_complex(core::Rng& rng) {
  return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
}

TEST(StateVector, InitializesToGroundState) {
  StateVector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_NEAR(std::abs(s.amplitude(0)), 1.0, 1e-15);
  EXPECT_NEAR(s.norm(), 1.0, 1e-15);
}

TEST(StateVector, QubitCountLimits) {
  EXPECT_THROW(StateVector(0), std::invalid_argument);
  EXPECT_THROW(StateVector(27), std::invalid_argument);
}

TEST(StateVector, HadamardCreatesEqualSuperposition) {
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  EXPECT_NEAR(std::norm(s.amplitude(0)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(1)), 0.5, 1e-12);
}

TEST(StateVector, PauliXFlipsBasisState) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kX), 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

class UnitarityTest : public ::testing::TestWithParam<GateKind> {};

TEST_P(UnitarityTest, NormPreservedByGate) {
  StateVector s(3);
  // Scramble a bit first.
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_1q(gate_matrix(GateKind::kH), 2);
  s.apply_1q(gate_matrix(GetParam(), 0.7), 1);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Gates, UnitarityTest,
                         ::testing::Values(GateKind::kX, GateKind::kY,
                                           GateKind::kZ, GateKind::kH,
                                           GateKind::kS, GateKind::kT,
                                           GateKind::kRx, GateKind::kRy,
                                           GateKind::kRz, GateKind::kPhase));

TEST(StateVector, ControlledGateActsOnlyWhenControlSet) {
  StateVector s(2);
  const std::size_t controls[] = {0};
  // Control |0>: nothing happens.
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b00)), 1.0, 1e-12);
  // Set the control, now the target flips.
  s.apply_1q(gate_matrix(GateKind::kX), 0);
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b11)), 1.0, 1e-12);
}

TEST(StateVector, MultiControlledRequiresAllControls) {
  StateVector s(3);
  s.apply_1q(gate_matrix(GateKind::kX), 0);  // only one of two controls set
  const std::size_t controls[] = {0, 1};
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 2);
  EXPECT_NEAR(std::norm(s.amplitude(0b001)), 1.0, 1e-12);
}

TEST(StateVector, SwapQubitsPermutesAmplitudes) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kX), 0);  // |01> (qubit0 = 1)
  s.swap_qubits(0, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, DiagonalAppliesPhases) {
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_diagonal([](std::uint64_t b) { return b == 1 ? -1.0 : 1.0; });
  // H then Z-phase then H == X up to global phase.
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  EXPECT_NEAR(std::norm(s.amplitude(1)), 1.0, 1e-12);
}

TEST(StateVector, PermutationMovesAmplitudes) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_permutation([](std::uint64_t b) { return b ^ 0b10u; });
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(0b11)), 0.5, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVector, ProbabilityOne) {
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kRy, 2.0 * std::acos(std::sqrt(0.25))), 0);
  EXPECT_NEAR(s.probability_one(0), 0.75, 1e-9);
  EXPECT_NEAR(s.probability_one(1), 0.0, 1e-12);
}

TEST(StateVector, SampleFollowsDistribution) {
  core::Rng rng(1);
  StateVector s(1);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  int ones = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i)
    if (s.sample(rng) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / shots, 0.5, 0.02);
}

TEST(StateVector, MeasureCollapsesState) {
  core::Rng rng(3);
  StateVector s(2);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  const std::size_t controls[] = {0};
  s.apply_controlled(gate_matrix(GateKind::kX), controls, 1);  // Bell pair
  const bool outcome = s.measure_qubit(0, rng);
  // After measuring qubit 0, qubit 1 is perfectly correlated.
  EXPECT_NEAR(s.probability_one(1), outcome ? 1.0 : 0.0, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
}

TEST(StateVector, FidelityOfIdenticalAndOrthogonalStates) {
  StateVector a(1);
  StateVector b(1);
  EXPECT_NEAR(a.fidelity(b), 1.0, 1e-12);
  b.apply_1q(gate_matrix(GateKind::kX), 0);
  EXPECT_NEAR(a.fidelity(b), 0.0, 1e-12);
}

// Seeded random gate sequences through both kernels: every single-qubit
// gate kind plus random dense, diagonal and triangular matrices, 0-3
// controls, and targets that cycle through 0, n-1 and a random qubit.
TEST(StateVectorExactness, KernelsMatchScalarReferenceBitForBit) {
  const GateKind kinds[] = {
      GateKind::kI,  GateKind::kX,    GateKind::kY,  GateKind::kZ,
      GateKind::kH,  GateKind::kS,    GateKind::kSdg, GateKind::kT,
      GateKind::kTdg, GateKind::kRx,  GateKind::kRy, GateKind::kRz,
      GateKind::kPhase};
  const std::size_t num_kinds = std::size(kinds);
  core::Rng rng(20240917);
  for (std::size_t n = 1; n <= 12; ++n) {
    for (int sequence = 0; sequence < 3; ++sequence) {
      StateVector state(n);
      std::vector<Complex> ref(std::size_t{1} << n);
      ref[0] = Complex{1.0, 0.0};
      for (int step = 0; step < 90; ++step) {
        // Past the named kinds: a dense, diagonal, lower- or
        // upper-triangular matrix of random entries.
        const std::uint64_t pick = rng.uniform_index(num_kinds + 4);
        Gate2x2 g;
        if (pick < num_kinds) {
          g = gate_matrix(kinds[pick], rng.uniform(-7.0, 7.0));
        } else {
          g = {random_complex(rng), random_complex(rng), random_complex(rng),
               random_complex(rng)};
          const std::uint64_t shape = pick - num_kinds;
          if (shape == 1 || shape == 2) g.m01 = Complex{};
          if (shape == 1 || shape == 3) g.m10 = Complex{};
        }
        const std::size_t target =
            step % 3 == 0 ? 0 : step % 3 == 1 ? n - 1 : rng.uniform_index(n);
        std::vector<std::size_t> others;
        for (std::size_t q = 0; q < n; ++q)
          if (q != target) others.push_back(q);
        rng.shuffle(others);
        const std::size_t num_controls = std::min<std::size_t>(
            others.size(), rng.uniform_index(4));
        const std::span<const std::size_t> controls(others.data(),
                                                    num_controls);
        // Zero controls also go through apply_controlled now and then.
        if (num_controls == 0 && step % 2 == 0) {
          state.apply_1q(g, target);
          reference_apply_1q(ref, g, target);
        } else {
          state.apply_controlled(g, controls, target);
          reference_apply_controlled(ref, g, controls, target);
        }
        const long bad = first_mismatch(state, ref);
        ASSERT_EQ(bad, -1) << "n=" << n << " sequence=" << sequence
                           << " step=" << step << " target=" << target
                           << " controls=" << num_controls;
      }
    }
  }
}

TEST(StateVector, SampleNeverReturnsZeroProbabilityState) {
  // |psi|^2 = 0.81 over states 0 and 1, so about one uniform draw in five
  // lands above the total probability; those draws must go to the last
  // state that can occur (1), never to the zero-probability top state (7).
  StateVector s(3);
  s.apply_1q(gate_matrix(GateKind::kH), 0);
  s.apply_1q({Complex{0.9, 0.0}, Complex{}, Complex{}, Complex{0.9, 0.0}}, 2);
  core::Rng rng(5);
  core::Rng draws(5);
  int ones = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i) {
    const std::uint64_t x = s.sample(rng);
    ASSERT_LE(x, 1u);
    if (x == 1) ++ones;
    draws.uniform();
  }
  EXPECT_NEAR(static_cast<double>(ones) / shots, 1.0 - 0.405, 0.02);
  EXPECT_EQ(rng.save(), draws.save());  // one uniform draw per sample
}

TEST(StateVector, BadTargetsThrow) {
  StateVector s(2);
  EXPECT_THROW(s.apply_1q(gate_matrix(GateKind::kX), 2), std::invalid_argument);
  const std::size_t controls[] = {1};
  EXPECT_THROW(s.apply_controlled(gate_matrix(GateKind::kX), controls, 1),
               std::invalid_argument);
  EXPECT_THROW(s.probability_one(5), std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::quantum
