#include "core/dynamics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rebooting::core {
namespace {

/// dy/dt = -lambda y, solution y0 * exp(-lambda t).
struct DecayKernel {
  Real lambda = 1.0;
  void rhs(Real /*t*/, std::span<const Real> y, std::span<Real> dydt) const {
    for (std::size_t i = 0; i < y.size(); ++i) dydt[i] = -lambda * y[i];
  }
};

/// Harmonic oscillator (y0, y1) = (cos t, -sin t); conserves y0^2 + y1^2.
struct HarmonicKernel {
  void rhs(Real /*t*/, std::span<const Real> y, std::span<Real> dydt) const {
    dydt[0] = y[1];
    dydt[1] = -y[0];
  }
};

/// Kernels may be stateful (the SOLG native sweep mutates gate memories).
struct CountingKernel {
  std::size_t evals = 0;
  void rhs(Real /*t*/, std::span<const Real> y, std::span<Real> dydt) {
    ++evals;
    for (std::size_t i = 0; i < y.size(); ++i) dydt[i] = -y[i];
  }
};

TEST(Workspace, HandsOutDistinctBlocks) {
  Workspace ws;
  const auto a = ws.real(16);
  const auto b = ws.real(16);
  EXPECT_NE(a.data(), b.data());
  const auto ba = ws.bytes(8);
  const auto bb = ws.bytes(8);
  EXPECT_NE(ba.data(), bb.data());
}

TEST(Workspace, ScopeRecyclesBlocksWithoutReallocating) {
  Workspace ws;
  Real* first = nullptr;
  {
    const auto scope = ws.scope();
    first = ws.real(64).data();
  }
  {
    const auto scope = ws.scope();
    EXPECT_EQ(ws.real(64).data(), first);  // same block, not a new allocation
  }
}

TEST(Workspace, NestedScopesDoNotAliasOuterBlocks) {
  Workspace ws;
  const auto outer_scope = ws.scope();
  const auto outer = ws.real(32);
  std::fill(outer.begin(), outer.end(), 7.0);
  {
    const auto inner_scope = ws.scope();
    const auto inner = ws.real(32);
    EXPECT_NE(inner.data(), outer.data());
    std::fill(inner.begin(), inner.end(), -1.0);
  }
  for (const Real x : outer) EXPECT_EQ(x, 7.0);
}

TEST(Workspace, GrowingABlockDoesNotMoveOthers) {
  Workspace ws;
  const auto a = ws.real(8);
  std::fill(a.begin(), a.end(), 3.0);
  const Real* a_data = a.data();
  // Acquiring a large second block must not disturb the first one.
  const auto b = ws.real(1 << 16);
  (void)b;
  EXPECT_EQ(a.data(), a_data);
  for (const Real x : a) EXPECT_EQ(x, 3.0);
}

TEST(IntegrateFixed, TimeGridIsDriftFree) {
  // 0.1 is not representable in binary; an accumulating t += dt drifts off
  // the exact grid within a few thousand steps. The driver must report
  // t = t0 + k*dt exactly.
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  const Real dt = 0.1;
  std::size_t k = 0;
  bool exact = true;
  const Real t_final = integrate_fixed(
      f, Scheme::kHeun, 0.0, 1000.0, dt, std::span<Real>(y), ws,
      [&](Real t, std::span<const Real>) {
        ++k;
        if (t != std::min(static_cast<Real>(k) * dt, 1000.0)) exact = false;
        return true;
      });
  EXPECT_TRUE(exact);
  EXPECT_EQ(t_final, 1000.0);
  EXPECT_EQ(k, 10000u);
}

TEST(IntegrateFixed, SchemesConvergeAtTheirOrder) {
  const auto error_at = [](Scheme scheme, Real dt) {
    DecayKernel f;
    Workspace ws;
    std::vector<Real> y{1.0};
    integrate_fixed(f, scheme, 0.0, 1.0, dt, std::span<Real>(y), ws);
    return std::abs(y[0] - std::exp(-1.0));
  };
  // Halving dt must cut the global error by ~2^order.
  const Real euler = error_at(Scheme::kEuler, 1e-2) /
                     error_at(Scheme::kEuler, 5e-3);
  const Real heun = error_at(Scheme::kHeun, 1e-2) /
                    error_at(Scheme::kHeun, 5e-3);
  const Real rk4 = error_at(Scheme::kRk4, 1e-1) /
                   error_at(Scheme::kRk4, 5e-2);
  EXPECT_NEAR(euler, 2.0, 0.2);
  EXPECT_NEAR(heun, 4.0, 0.4);
  EXPECT_NEAR(rk4, 16.0, 1.6);
}

TEST(FixedStep, EulerDecaysApproximately) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  integrate_fixed(f, Scheme::kEuler, 0.0, 1.0, 1e-4, std::span<Real>(y), ws);
  EXPECT_NEAR(y[0], std::exp(-1.0), 1e-3);
}

TEST(FixedStep, Rk4IsMuchMoreAccurateThanEuler) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> ye{1.0};
  std::vector<Real> yr{1.0};
  integrate_fixed(f, Scheme::kEuler, 0.0, 2.0, 0.01, std::span<Real>(ye), ws);
  integrate_fixed(f, Scheme::kRk4, 0.0, 2.0, 0.01, std::span<Real>(yr), ws);
  const Real exact = std::exp(-2.0);
  EXPECT_LT(std::abs(yr[0] - exact), std::abs(ye[0] - exact) / 100.0);
}

/// Convergence-order property: halving dt should reduce the error by ~2^p.
class ConvergenceOrder
    : public ::testing::TestWithParam<std::pair<Scheme, Real>> {};

TEST_P(ConvergenceOrder, MatchesTheory) {
  const auto [scheme, expected_order] = GetParam();
  const Real exact = std::exp(-1.0);
  auto error_at = [&](Real dt) {
    DecayKernel f;
    Workspace ws;
    std::vector<Real> y{1.0};
    integrate_fixed(f, scheme, 0.0, 1.0, dt, std::span<Real>(y), ws);
    return std::abs(y[0] - exact);
  };
  const Real observed_order = std::log2(error_at(0.01) / error_at(0.005));
  EXPECT_NEAR(observed_order, expected_order, 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConvergenceOrder,
    ::testing::Values(std::pair{Scheme::kEuler, 1.0},
                      std::pair{Scheme::kHeun, 2.0},
                      std::pair{Scheme::kRk4, 4.0}));

TEST(FixedStep, ObserverStopsEarly) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  const Real t_stop = integrate_fixed(
      f, Scheme::kRk4, 0.0, 10.0, 0.01, std::span<Real>(y), ws,
      [](Real, std::span<const Real> s) { return s[0] > 0.5; });
  EXPECT_LT(t_stop, 1.0);
  EXPECT_NEAR(y[0], 0.5, 0.01);
}

TEST(FixedStep, RejectsNonPositiveDt) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  EXPECT_THROW(integrate_fixed(f, Scheme::kEuler, 0.0, 1.0, -0.1,
                               std::span<Real>(y), ws),
               std::invalid_argument);
}

TEST(IntegrateFixed, ObserverStopsEarly) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  const Real t_final =
      integrate_fixed(f, Scheme::kEuler, 0.0, 10.0, 0.25, std::span<Real>(y),
                      ws, [](Real t, std::span<const Real>) {
                        return t < 2.0;  // stop at the first t >= 2
                      });
  EXPECT_EQ(t_final, 2.0);
}

TEST(FixedStep, FinalStepLandsExactlyOnT1) {
  // 0.95 is not a multiple of dt: the last step is shortened, not skipped.
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  const Real t_final = integrate_fixed(f, Scheme::kRk4, 0.0, 0.95, 0.1,
                                       std::span<Real>(y), ws);
  EXPECT_DOUBLE_EQ(t_final, 0.95);
  EXPECT_NEAR(y[0], std::exp(-0.95), 1e-6);
}

TEST(IntegrateFixed, RejectsNonPositiveDt) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  EXPECT_THROW(integrate_fixed(f, Scheme::kEuler, 0.0, 1.0, 0.0,
                               std::span<Real>(y), ws),
               std::invalid_argument);
}

TEST(Steps, RejectUndersizedScratch) {
  DecayKernel f;
  std::vector<Real> y{1.0, 2.0};
  std::vector<Real> scratch(2 * y.size());  // heun needs 3x
  EXPECT_THROW(
      heun_step(f, 0.0, 0.1, std::span<Real>(y), std::span<Real>(scratch)),
      std::invalid_argument);
}

TEST(Steps, ScratchTooSmallThrows) {
  DecayKernel f;
  std::vector<Real> y{1.0};
  std::vector<Real> scratch(2);  // rk4 needs 5n
  EXPECT_THROW(
      rk4_step(f, 0.0, 0.1, std::span<Real>(y), std::span<Real>(scratch)),
      std::invalid_argument);
}

TEST(Steps, StatefulKernelsCompileAndRun) {
  CountingKernel f;
  std::vector<Real> y{1.0};
  std::vector<Real> scratch(5);
  rk4_step(f, 0.0, 0.1, std::span<Real>(y), std::span<Real>(scratch));
  EXPECT_EQ(f.evals, 4u);  // RK4 = four RHS evaluations
}

TEST(IntegrateAdaptive, MeetsToleranceOnDecay) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  opts.abs_tol = 1e-10;
  opts.rel_tol = 1e-8;
  const AdaptiveResult res =
      integrate_adaptive(f, 0.0, 5.0, std::span<Real>(y), opts, ws);
  EXPECT_EQ(res.t_final, 5.0);
  EXPECT_GT(res.accepted_steps, 0u);
  EXPECT_FALSE(res.hit_step_limit);
  EXPECT_NEAR(y[0], std::exp(-5.0), 1e-6);
}

TEST(IntegrateAdaptive, ConservesHarmonicEnergy) {
  HarmonicKernel f;
  Workspace ws;
  std::vector<Real> y{1.0, 0.0};
  AdaptiveOptions opts;
  opts.abs_tol = 1e-10;
  opts.rel_tol = 1e-9;
  integrate_adaptive(f, 0.0, 20.0, std::span<Real>(y), opts, ws);
  EXPECT_NEAR(y[0] * y[0] + y[1] * y[1], 1.0, 1e-5);
}

TEST(Adaptive, DecayAccurateToTolerance) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  opts.abs_tol = 1e-10;
  opts.rel_tol = 1e-10;
  const AdaptiveResult res =
      integrate_adaptive(f, 0.0, 3.0, std::span<Real>(y), opts, ws);
  EXPECT_NEAR(y[0], std::exp(-3.0), 1e-7);
  EXPECT_DOUBLE_EQ(res.t_final, 3.0);
  EXPECT_GT(res.accepted_steps, 0u);
}

TEST(Adaptive, HarmonicOscillatorConservesAmplitude) {
  // One full period returns (cos t, -sin t) to its start, component-wise.
  HarmonicKernel f;
  Workspace ws;
  std::vector<Real> y{1.0, 0.0};
  AdaptiveOptions opts;
  opts.rel_tol = 1e-9;
  opts.abs_tol = 1e-9;
  integrate_adaptive(f, 0.0, 2.0 * kPi, std::span<Real>(y), opts, ws);
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_NEAR(y[1], 0.0, 1e-6);
}

TEST(Adaptive, ObserverStops) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  const AdaptiveResult res = integrate_adaptive(
      f, 0.0, 100.0, std::span<Real>(y), AdaptiveOptions{}, ws,
      [](Real, std::span<const Real> s) { return s[0] > 0.1; });
  EXPECT_TRUE(res.stopped_by_observer);
  EXPECT_LT(res.t_final, 100.0);
}

TEST(Adaptive, StepsAdaptToStiffness) {
  // A rate that jumps from slow to fast at t = 5: the controller must take
  // long steps through the slow phase, far fewer than fixed stepping at the
  // fast phase's dt would.
  struct SwitchingDecayKernel {
    void rhs(Real t, std::span<const Real> y, std::span<Real> dydt) const {
      dydt[0] = (t < 5.0 ? -0.01 : -50.0) * y[0];
    }
  };
  SwitchingDecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  opts.max_dt = 1.0;
  const AdaptiveResult res =
      integrate_adaptive(f, 0.0, 6.0, std::span<Real>(y), opts, ws);
  EXPECT_LT(res.accepted_steps, 2000u);
  EXPECT_GE(y[0], -1e-6);
}

TEST(Adaptive, StepLimitReported) {
  HarmonicKernel f;
  Workspace ws;
  std::vector<Real> y{1.0, 0.0};
  AdaptiveOptions opts;
  opts.max_steps = 5;
  const AdaptiveResult res =
      integrate_adaptive(f, 0.0, 1000.0, std::span<Real>(y), opts, ws);
  EXPECT_TRUE(res.hit_step_limit);
  EXPECT_LT(res.t_final, 1000.0);
}

TEST(IntegrateAdaptive, ObserverStopFlagged) {
  DecayKernel f;
  Workspace ws;
  std::vector<Real> y{1.0};
  AdaptiveOptions opts;
  const AdaptiveResult res = integrate_adaptive(
      f, 0.0, 50.0, std::span<Real>(y), opts, ws,
      [](Real, std::span<const Real> s) { return s[0] > 0.5; });
  EXPECT_TRUE(res.stopped_by_observer);
  EXPECT_LT(res.t_final, 50.0);
  EXPECT_LE(y[0], 0.5);
}

}  // namespace
}  // namespace rebooting::core
