#include "memcomputing/sat.h"

#include <gtest/gtest.h>

namespace rebooting::memcomputing {
namespace {

Cnf tiny_sat() {
  // (x1 | x2) & (!x1 | x3) & (!x2 | !x3)
  Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  return cnf;
}

Cnf tiny_unsat() {
  // x1 & !x1 via clauses.
  Cnf cnf(1);
  cnf.add_clause({1});
  cnf.add_clause({-1});
  return cnf;
}

TEST(WalkSat, SolvesTinyFormula) {
  core::Rng rng(1);
  const SatResult r = walksat(tiny_sat(), rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(tiny_sat().satisfied(r.assignment));
  EXPECT_EQ(r.best_unsatisfied, 0u);
}

TEST(WalkSat, SolvesPlantedInstances) {
  core::Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const auto inst = planted_ksat(rng, 50, 210, 3);
    const SatResult r = walksat(inst.cnf, rng);
    ASSERT_TRUE(r.satisfied);
    EXPECT_TRUE(inst.cnf.satisfied(r.assignment));
  }
}

TEST(WalkSat, FlipLimitRespected) {
  core::Rng rng(5);
  WalkSatOptions opts;
  opts.max_flips = 10;
  opts.max_tries = 2;
  const SatResult r = walksat(tiny_unsat(), rng, opts);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_LE(r.flips, 20u);
  EXPECT_EQ(r.best_unsatisfied, 1u);  // one of the two units always broken
}

TEST(Gsat, SolvesTinyFormula) {
  core::Rng rng(7);
  const SatResult r = gsat(tiny_sat(), rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(tiny_sat().satisfied(r.assignment));
}

TEST(Gsat, SolvesPlantedInstance) {
  core::Rng rng(11);
  const auto inst = planted_ksat(rng, 30, 120, 3);
  GsatOptions opts;
  opts.max_tries = 10;
  const SatResult r = gsat(inst.cnf, rng, opts);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dpll, SolvesSatInstance) {
  const SatResult r = dpll(tiny_sat());
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(tiny_sat().satisfied(r.assignment));
}

TEST(Dpll, ProvesUnsat) {
  const SatResult r = dpll(tiny_unsat());
  EXPECT_FALSE(r.satisfied);
  EXPECT_FALSE(r.hit_limit);  // complete refutation, not a timeout
}

TEST(Dpll, ProvesUnsatPigeonhole) {
  // 3 pigeons, 2 holes: p_ij = pigeon i in hole j.
  // Variables: p11=1 p12=2 p21=3 p22=4 p31=5 p32=6.
  Cnf cnf(6);
  cnf.add_clause({1, 2});
  cnf.add_clause({3, 4});
  cnf.add_clause({5, 6});
  // No two pigeons share a hole.
  cnf.add_clause({-1, -3});
  cnf.add_clause({-1, -5});
  cnf.add_clause({-3, -5});
  cnf.add_clause({-2, -4});
  cnf.add_clause({-2, -6});
  cnf.add_clause({-4, -6});
  const SatResult r = dpll(cnf);
  EXPECT_FALSE(r.satisfied);
  EXPECT_FALSE(r.hit_limit);
}

TEST(Dpll, AgreesWithWalkSatOnRandomInstances) {
  core::Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    const Cnf cnf = random_ksat(rng, 20, 85, 3);
    const SatResult complete = dpll(cnf);
    if (complete.satisfied) {
      EXPECT_TRUE(cnf.satisfied(complete.assignment));
      WalkSatOptions opts;
      opts.max_flips = 200000;
      opts.max_tries = 5;
      const SatResult local = walksat(cnf, rng, opts);
      EXPECT_TRUE(local.satisfied);  // local search finds it too
    } else {
      // UNSAT proof => WalkSAT can never succeed.
      WalkSatOptions opts;
      opts.max_flips = 20000;
      const SatResult local = walksat(cnf, rng, opts);
      EXPECT_FALSE(local.satisfied);
    }
  }
}

TEST(Dpll, DecisionLimitReported) {
  core::Rng rng(17);
  const Cnf cnf = random_ksat(rng, 60, 256, 3);
  DpllOptions opts;
  opts.max_decisions = 3;
  const SatResult r = dpll(cnf, opts);
  if (!r.satisfied) {
    EXPECT_TRUE(r.hit_limit || r.decisions <= 3);
  }
}

TEST(Dpll, UnitPropagationCountsWork) {
  Cnf cnf(3);
  cnf.add_clause({1});
  cnf.add_clause({-1, 2});
  cnf.add_clause({-2, 3});
  const SatResult r = dpll(cnf);
  ASSERT_TRUE(r.satisfied);
  EXPECT_GE(r.propagations, 3u);
  EXPECT_TRUE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_TRUE(r.assignment[3]);
}

}  // namespace
}  // namespace rebooting::memcomputing
