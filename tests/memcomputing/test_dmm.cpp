#include "memcomputing/dmm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "memcomputing/ising.h"
#include "memcomputing/sat.h"

namespace rebooting::memcomputing {
namespace {

TEST(Dmm, SolvesTinyFormula) {
  Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  core::Rng rng(1);
  const DmmResult r = DmmSolver(cnf, {}).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_TRUE(cnf.satisfied(r.assignment));
  EXPECT_EQ(r.best_unsatisfied, 0u);
}

TEST(Dmm, SolvesPlantedThreeSat) {
  core::Rng rng(3);
  for (int trial = 0; trial < 3; ++trial) {
    const auto inst = planted_ksat(rng, 60, 255, 3);
    const DmmResult r = DmmSolver(inst.cnf, {}).solve(rng);
    ASSERT_TRUE(r.satisfied) << "trial " << trial;
    EXPECT_TRUE(inst.cnf.satisfied(r.assignment));
  }
}

TEST(Dmm, PointDissipativeVoltagesBounded) {
  // The defining property of valid DMM dynamics (Sec. IV): trajectories stay
  // bounded — voltages never leave [-1, 1].
  core::Rng rng(5);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.max_steps = 20000;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_LE(r.max_abs_voltage, 1.0 + 1e-12);
}

TEST(Dmm, SolutionIsFixedPoint) {
  // Starting AT a solution, the dynamics stay there (equilibria == solutions).
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 2});
  core::Rng rng(7);
  // x2 = true satisfies everything; v = (+-, +1).
  const DmmResult r =
      DmmSolver(cnf, {}).solve_from({0.5, 1.0}, rng);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 0u);  // recognized immediately
}

TEST(Dmm, EnergyTraceRecordedAndDecreasing) {
  core::Rng rng(9);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.energy_stride = 10;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_GT(r.energy_trace.size(), 2u);
  // Clause energy at the end well below the start (global descent trend).
  EXPECT_LT(r.energy_trace.back(), r.energy_trace.front());
}

TEST(Dmm, AvalancheTrackingRecordsFlips) {
  core::Rng rng(11);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.track_avalanches = true;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_FALSE(r.avalanche_sizes.empty());
  std::size_t total_flips = 0;
  for (const std::size_t s : r.avalanche_sizes) {
    EXPECT_GE(s, 1u);
    total_flips += s;
  }
  EXPECT_GT(total_flips, 0u);
}

TEST(Dmm, NoiseToleratedAtModerateAmplitude) {
  // The paper's robustness claim (ref [59]): moderate dynamical noise does
  // not destroy the solution search.
  core::Rng rng(13);
  const auto inst = planted_ksat(rng, 40, 170, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 500000;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, StepLimitReportedWhenUnsolvable) {
  Cnf cnf(1);
  cnf.add_clause({1});
  cnf.add_clause({-1});
  core::Rng rng(15);
  DmmOptions opts;
  opts.max_steps = 2000;
  const DmmResult r = DmmSolver(cnf, opts).solve(rng);
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.best_unsatisfied, 1u);
}

TEST(Dmm, MaxSatModeMinimizesWeight) {
  // Two soft constraints conflict; the heavier one should win.
  Cnf cnf(1);
  cnf.add_clause({1}, 5.0);
  cnf.add_clause({-1}, 1.0);
  core::Rng rng(17);
  DmmOptions opts;
  opts.maxsat_mode = true;
  opts.max_steps = 5000;
  const DmmResult r = DmmSolver(cnf, opts).solve(rng);
  EXPECT_TRUE(r.assignment[1]);  // satisfy the weight-5 clause
  EXPECT_DOUBLE_EQ(r.best_unsatisfied_weight, 1.0);
}

TEST(Dmm, AblationRigidityOffStillSolvesEasyInstances) {
  core::Rng rng(19);
  const auto inst = planted_ksat(rng, 20, 60, 3);
  DmmOptions opts;
  opts.params.rigidity = false;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, AblationLongTermMemoryOffStillSolvesEasyInstances) {
  core::Rng rng(21);
  const auto inst = planted_ksat(rng, 20, 60, 3);
  DmmOptions opts;
  opts.params.long_term_memory = false;
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  EXPECT_TRUE(r.satisfied);
}

TEST(Dmm, AgreesWithDpllVerdictOnSatInstances) {
  core::Rng rng(23);
  for (int trial = 0; trial < 4; ++trial) {
    const Cnf cnf = random_ksat(rng, 20, 80, 3);
    const SatResult complete = dpll(cnf);
    if (!complete.satisfied) continue;  // DMM cannot certify UNSAT
    DmmOptions opts;
    opts.max_steps = 300000;
    const DmmResult r = DmmSolver(cnf, opts).solve(rng);
    EXPECT_TRUE(r.satisfied);
  }
}

class DmmRatioSweep : public ::testing::TestWithParam<double> {};

TEST_P(DmmRatioSweep, SolvesPlantedInstancesAcrossClauseRatios) {
  const double ratio = GetParam();
  core::Rng rng(static_cast<std::uint64_t>(ratio * 1000));
  const std::size_t n = 50;
  const auto m = static_cast<std::size_t>(ratio * static_cast<double>(n));
  for (int trial = 0; trial < 2; ++trial) {
    const auto inst = planted_ksat(rng, n, m, 3);
    DmmOptions opts;
    opts.max_steps = 400'000;
    const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
    ASSERT_TRUE(r.satisfied) << "ratio " << ratio << " trial " << trial;
    EXPECT_TRUE(inst.cnf.satisfied(r.assignment));
  }
}

INSTANTIATE_TEST_SUITE_P(ClauseRatios, DmmRatioSweep,
                         ::testing::Values(2.0, 3.0, 4.0, 4.25, 5.0, 6.0));

// Golden-trajectory regression tests: the fingerprints below were captured
// from the pre-kernel std::function implementation. The static-dispatch
// kernel must reproduce the seed trajectories bit-for-bit — any drift here
// means the refactor changed the arithmetic, not just the dispatch.
TEST(DmmGolden, TinyFormulaTrajectoryUnchanged) {
  Cnf cnf(3);
  cnf.add_clause({1, 2});
  cnf.add_clause({-1, 3});
  cnf.add_clause({-2, -3});
  core::Rng rng(42);
  const DmmResult r = DmmSolver(cnf, {}).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 4u);
  EXPECT_EQ(r.sim_time, 0.93332303461574861);
  EXPECT_EQ(r.best_unsatisfied, 0u);
  ASSERT_EQ(r.assignment.size(), 4u);
  EXPECT_FALSE(r.assignment[1]);
  EXPECT_TRUE(r.assignment[2]);
  EXPECT_FALSE(r.assignment[3]);
}

TEST(DmmGolden, PlantedInstanceTrajectoryUnchanged) {
  core::Rng gen(1234);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.energy_stride = 8;
  opts.max_steps = 200000;
  core::Rng rng(99);
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 255u);
  EXPECT_EQ(r.sim_time, 11.197302839143459);
  EXPECT_EQ(r.max_abs_voltage, 1.0);
  ASSERT_EQ(r.energy_trace.size(), 32u);
  EXPECT_EQ(r.energy_trace[0], 33.890063716783047);
  EXPECT_EQ(r.energy_trace[1], 25.983609457064752);
  EXPECT_EQ(r.energy_trace.back(), 3.1076325184000861);
}

TEST(DmmGolden, NoisyTrajectoryUnchanged) {
  core::Rng gen(7);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 5000;
  core::Rng rng(5);
  const DmmResult r = DmmSolver(inst.cnf, opts).solve(rng);
  ASSERT_TRUE(r.satisfied);
  EXPECT_EQ(r.steps, 15u);
  EXPECT_EQ(r.sim_time, 0.67140313066683166);
}

TEST(DmmEnsemble, WinnerIdenticalAcrossThreadCounts) {
  core::Rng gen(77);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.max_steps = 100000;
  const DmmSolver solver(inst.cnf, opts);

  const auto run = [&](std::size_t threads) {
    DmmEnsembleOptions eopts;
    eopts.threads = threads;
    return solver.solve_ensemble(16, 2026, eopts);
  };
  const DmmEnsembleResult serial = run(1);
  const DmmEnsembleResult four = run(4);
  const DmmEnsembleResult eight = run(8);

  ASSERT_TRUE(serial.any_satisfied);
  for (const DmmEnsembleResult* er : {&four, &eight}) {
    EXPECT_EQ(er->any_satisfied, serial.any_satisfied);
    EXPECT_EQ(er->best_index, serial.best_index);
    EXPECT_EQ(er->best.steps, serial.best.steps);
    EXPECT_EQ(er->best.sim_time, serial.best.sim_time);
    EXPECT_EQ(er->best.assignment, serial.best.assignment);
  }
  // Early stop guarantees everything up to the winner ran, bit-identically.
  for (std::size_t i = 0; i <= serial.best_index; ++i) {
    ASSERT_TRUE(serial.ran[i] && four.ran[i] && eight.ran[i]) << "i=" << i;
    EXPECT_EQ(four.results[i].steps, serial.results[i].steps) << "i=" << i;
    EXPECT_EQ(eight.results[i].sim_time, serial.results[i].sim_time)
        << "i=" << i;
  }
}

TEST(DmmEnsemble, EnsembleTrajectoryMatchesDirectStreamSolve) {
  // Restart i of an ensemble must be exactly solve() with Rng::stream(seed, i)
  // — the parallel driver adds scheduling, never different dynamics.
  core::Rng gen(31);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.max_steps = 50000;
  const DmmSolver solver(inst.cnf, opts);

  DmmEnsembleOptions eopts;
  eopts.threads = 2;
  eopts.stop_on_first_solution = false;  // run all restarts
  const DmmEnsembleResult er = solver.solve_ensemble(6, 12345, eopts);
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(er.ran[i]);
    core::Rng rng = core::Rng::stream(12345, i);
    const DmmResult direct = solver.solve(rng);
    EXPECT_EQ(er.results[i].steps, direct.steps) << "i=" << i;
    EXPECT_EQ(er.results[i].sim_time, direct.sim_time) << "i=" << i;
    EXPECT_EQ(er.results[i].satisfied, direct.satisfied) << "i=" << i;
    EXPECT_EQ(er.results[i].assignment, direct.assignment) << "i=" << i;
  }
}

TEST(DmmEnsemble, ReportsBestRestartWhenNoneSatisfies) {
  Cnf cnf(1);
  cnf.add_clause({1});
  cnf.add_clause({-1});
  DmmOptions opts;
  opts.max_steps = 500;
  const DmmSolver solver(cnf, opts);
  DmmEnsembleOptions eopts;
  eopts.threads = 4;
  const DmmEnsembleResult er = solver.solve_ensemble(8, 9, eopts);
  EXPECT_FALSE(er.any_satisfied);
  EXPECT_FALSE(er.best.satisfied);
  EXPECT_EQ(er.best.best_unsatisfied, 1u);
  // Unsatisfiable: no early stop, so every restart ran.
  for (std::size_t i = 0; i < 8; ++i) EXPECT_TRUE(er.ran[i]) << "i=" << i;
}

TEST(DmmEnsemble, RejectsZeroRestarts) {
  Cnf cnf(1);
  cnf.add_clause({1});
  EXPECT_THROW(DmmSolver(cnf, {}).solve_ensemble(0, 1), std::invalid_argument);
}

// --- sliced execution (DESIGN.md §12): N budgeted advances must be
// bit-identical to one unlimited solve, wherever the cuts fall. -----------

TEST(DmmSliced, BudgetedAdvancesMatchUninterruptedSolve) {
  core::Rng gen(1234);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.energy_stride = 8;
  opts.track_avalanches = true;
  opts.max_steps = 200000;
  const DmmSolver solver(inst.cnf, opts);

  std::vector<core::Real> v0(30);
  core::Rng init(555);
  for (auto& v : v0) v = init.uniform(-1.0, 1.0);

  core::Rng direct_rng(99);
  const DmmResult direct = solver.solve_from(v0, direct_rng);
  ASSERT_TRUE(direct.satisfied);

  for (const std::size_t slice_steps : {1u, 7u, 64u}) {
    core::Workspace ws;
    core::Checkpoint ckpt = solver.begin(v0, core::Rng(99));
    DmmSliceOutcome out;
    std::size_t slices = 0;
    do {
      out = solver.advance(ckpt, core::SliceBudget::steps(slice_steps), ws);
      ++slices;
      ASSERT_LE(slices, 100000u);
    } while (!out.done);
    EXPECT_GE(slices, direct.steps / slice_steps);
    EXPECT_EQ(out.result.satisfied, direct.satisfied);
    EXPECT_EQ(out.result.steps, direct.steps);
    EXPECT_EQ(out.result.sim_time, direct.sim_time);
    EXPECT_EQ(out.result.steps_to_best, direct.steps_to_best);
    EXPECT_EQ(out.result.assignment, direct.assignment);
    EXPECT_EQ(out.result.max_abs_voltage, direct.max_abs_voltage);
    EXPECT_EQ(out.result.energy_trace, direct.energy_trace);
    EXPECT_EQ(out.result.avalanche_sizes, direct.avalanche_sizes);
    // A finished checkpoint reconstructs the same result on demand.
    const DmmResult recon = solver.result_from_checkpoint(ckpt);
    EXPECT_EQ(recon.steps, direct.steps);
    EXPECT_EQ(recon.sim_time, direct.sim_time);
    EXPECT_EQ(recon.energy_trace, direct.energy_trace);
    EXPECT_EQ(recon.assignment, direct.assignment);
  }
}

TEST(DmmSliced, JsonParkAndResumeMidTrajectoryIsExact) {
  // Noisy run: the RNG stream (including the cached Box–Muller deviate)
  // must survive the JSON round trip mid-flight.
  core::Rng gen(7);
  const auto inst = planted_ksat(gen, 20, 80, 3);
  DmmOptions opts;
  opts.params.noise_stddev = 0.05;
  opts.max_steps = 5000;
  const DmmSolver solver(inst.cnf, opts);

  std::vector<core::Real> v0(20);
  core::Rng init(11);
  for (auto& v : v0) v = init.uniform(-1.0, 1.0);

  core::Rng direct_rng(5);
  const DmmResult direct = solver.solve_from(v0, direct_rng);

  core::Workspace ws;
  core::Checkpoint ckpt = solver.begin(v0, core::Rng(5));
  DmmSliceOutcome out;
  do {
    out = solver.advance(ckpt, core::SliceBudget::steps(3), ws);
    const auto parked = core::Checkpoint::from_json(ckpt.json_dump());
    ASSERT_TRUE(parked.has_value());
    EXPECT_EQ(*parked, ckpt);
    ckpt = *parked;  // resume from the deserialized copy every slice
  } while (!out.done);
  EXPECT_EQ(out.result.steps, direct.steps);
  EXPECT_EQ(out.result.sim_time, direct.sim_time);
  EXPECT_EQ(out.result.satisfied, direct.satisfied);
  EXPECT_EQ(out.result.assignment, direct.assignment);
}

TEST(DmmSliced, RejectsForeignCheckpoints) {
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  const DmmSolver solver(cnf, {});
  core::Workspace ws;
  core::Checkpoint ckpt;
  ckpt.tag = "oscillator";
  EXPECT_THROW(solver.advance(ckpt, core::SliceBudget{}, ws),
               std::invalid_argument);
  EXPECT_THROW(solver.result_from_checkpoint(ckpt), std::invalid_argument);
  // Unfinished checkpoints have no result yet.
  core::Rng rng(3);
  core::Checkpoint fresh = solver.begin({0.5, -0.5}, rng);
  if (!fresh.flags.empty() && fresh.flags[0] == 0) {
    EXPECT_THROW(solver.result_from_checkpoint(fresh), std::invalid_argument);
  }
}

TEST(DmmSlicedEnsemble, SlicedEnsembleMatchesUnsliced) {
  core::Rng gen(77);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.max_steps = 100000;
  const DmmSolver solver(inst.cnf, opts);

  DmmEnsembleOptions eopts;
  eopts.threads = 4;
  const DmmEnsembleResult whole = solver.solve_ensemble(16, 2026, eopts);
  ASSERT_TRUE(whole.any_satisfied);
  // Slice well below the winner's trajectory length so the ensemble is
  // guaranteed to cross several invocation boundaries before finishing.
  const std::size_t slice = std::max<std::size_t>(1, whole.best.steps / 4);

  core::EnsembleCheckpoint ckpt;
  DmmEnsembleResult sliced;
  std::size_t rounds = 0;
  for (;;) {
    const bool done = solver.solve_ensemble_slice(
        16, 2026, eopts, core::SliceBudget::steps(slice), ckpt, &sliced);
    ++rounds;
    ASSERT_LE(rounds, 100000u);
    if (done) break;
    // Park the whole ensemble through JSON mid-flight (crash-resume path).
    const auto parked = core::EnsembleCheckpoint::from_json(ckpt.json_dump());
    ASSERT_TRUE(parked.has_value());
    ckpt = *parked;
  }
  EXPECT_GE(rounds, 4u);
  EXPECT_EQ(sliced.any_satisfied, whole.any_satisfied);
  EXPECT_EQ(sliced.best_index, whole.best_index);
  EXPECT_EQ(sliced.best.steps, whole.best.steps);
  EXPECT_EQ(sliced.best.sim_time, whole.best.sim_time);
  EXPECT_EQ(sliced.best.assignment, whole.best.assignment);
  for (std::size_t i = 0; i <= whole.best_index; ++i) {
    ASSERT_TRUE(whole.ran[i] && sliced.ran[i]) << "i=" << i;
    EXPECT_EQ(sliced.results[i].steps, whole.results[i].steps) << "i=" << i;
    EXPECT_EQ(sliced.results[i].sim_time, whole.results[i].sim_time)
        << "i=" << i;
  }
}

// --- golden fingerprints for the clause-kernel inputs the DmmGolden cases
// above do not reach: rebootd's full-budget run, weighted 2-literal MaxSAT,
// each ablation switch, mixed clause widths and repeated variables. Each
// pins the end of the trajectory and the caller's generator position; the
// values were captured from the ClauseData kernel (two heap vectors per
// clause) that the flat clause layout replaced. ----------------------------

struct Fingerprint {
  std::size_t steps = 0;
  Real sim_time = 0.0;
  std::size_t best_unsatisfied = 0;
  Real max_abs_voltage = 0.0;
  std::size_t energy_samples = 0;
  Real energy_first = 0.0;
  Real energy_last = 0.0;
  std::uint64_t next_draw = 0;  ///< rng() right after the solve
};

DmmResult expect_fingerprint(const Cnf& cnf, const DmmOptions& opts,
                             core::Rng& rng, const Fingerprint& want) {
  DmmResult r = DmmSolver(cnf, opts).solve(rng);
  EXPECT_EQ(r.steps, want.steps);
  EXPECT_EQ(r.sim_time, want.sim_time);
  EXPECT_EQ(r.best_unsatisfied, want.best_unsatisfied);
  EXPECT_EQ(r.max_abs_voltage, want.max_abs_voltage);
  EXPECT_EQ(r.energy_trace.size(), want.energy_samples);
  if (!r.energy_trace.empty()) {
    EXPECT_EQ(r.energy_trace.front(), want.energy_first);
    EXPECT_EQ(r.energy_trace.back(), want.energy_last);
  }
  EXPECT_EQ(rng(), want.next_draw);
  return r;
}

TEST(DmmGolden, RebootdBudgetRunUnchanged) {
  // rebootd's `sat` workload at seed 1001 runs its whole 20,000-step budget.
  // An energy stride only records the trace; the trajectory is rebootd's.
  core::Rng rng(1001);
  const Cnf cnf = random_ksat(rng, 50, 200, 3);
  DmmOptions opts;
  opts.max_steps = 20'000;
  opts.energy_stride = 997;
  const DmmResult r = expect_fingerprint(
      cnf, opts, rng,
      {20000, 464.54026178568091, 1, 1.0, 21, 55.38056617983684,
       8.9634556520743516, 5735635586693707511ull});
  EXPECT_FALSE(r.satisfied);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_EQ(r.steps_to_best, 4328u);
}

TEST(DmmGolden, WeightedTwoLiteralMaxSatUnchanged) {
  core::Rng rng(13);
  const auto inst = make_frustrated_loops(rng, 5, 6);
  const Cnf cnf = ising_to_cnf(inst.model);
  DmmOptions opts;
  opts.maxsat_mode = true;
  opts.max_steps = 4000;
  opts.energy_stride = 250;
  const DmmResult r = expect_fingerprint(
      cnf, opts, rng,
      {4000, 99.85104385333139, 1, 1.0, 16, 22.675028893044004,
       1.8098573991239306, 18061439258054975884ull});
  EXPECT_EQ(r.best_unsatisfied_weight, 1.0);
  EXPECT_EQ(r.steps_to_best, 72u);
}

TEST(DmmGolden, RigidityOffUnchanged) {
  core::Rng rng(1001);
  const Cnf cnf = random_ksat(rng, 50, 200, 3);
  DmmOptions opts;
  opts.params.rigidity = false;
  opts.max_steps = 5000;
  opts.energy_stride = 50;
  expect_fingerprint(cnf, opts, rng,
                     {5000, 122.40704466110488, 3, 1.0, 100, 55.38056617983684,
                      38.904007170355221, 5735635586693707511ull});
}

TEST(DmmGolden, LongTermMemoryOffUnchanged) {
  core::Rng gen(1234);
  const auto inst = planted_ksat(gen, 30, 126, 3);
  DmmOptions opts;
  opts.params.long_term_memory = false;
  opts.max_steps = 5000;
  opts.energy_stride = 50;
  core::Rng rng(99);
  expect_fingerprint(inst.cnf, opts, rng,
                     {5000, 2029.2115901544439, 2, 1.0, 100, 33.890063716783047,
                      4.4900571890929211, 984109756844473948ull});
}

TEST(DmmGolden, MixedClauseWidthsUnchanged) {
  // An odd clause count of 1- to 4-literal clauses over distinct variables.
  core::Rng gen(2718);
  Cnf cnf(15);
  constexpr std::size_t kWidths[] = {3, 2, 4, 3, 1, 3, 4, 2};
  for (std::size_t i = 0; i < 81; ++i) {
    Clause c;
    for (const std::size_t v :
         core::sample_without_replacement(gen, 15, kWidths[i % 8])) {
      const auto var = static_cast<Literal>(v + 1);
      c.literals.push_back(gen.bernoulli(0.5) ? var : -var);
    }
    cnf.add_clause(std::move(c));
  }
  DmmOptions opts;
  opts.max_steps = 3000;
  opts.energy_stride = 64;
  core::Rng rng(5);
  expect_fingerprint(cnf, opts, rng,
                     {3000, 35.92945022466359, 4, 1.0, 47, 28.03483556239652,
                      8.1049989523057437, 16082847584663456688ull});
}

TEST(DmmGolden, DimacsRepeatedVariablesUnchanged) {
  // A literal given twice and a tautology reach the kernel as written; the
  // two unit clauses on variable 6 keep the run going to its budget.
  const Cnf cnf = Cnf::from_dimacs_string(
      "p cnf 6 11\n"
      "1 1 -2 0\n3 -3 0\n-1 2 4 0\n2 -4 5 0\n-5 -6 1 0\n6 0\n"
      "6 3 -2 0\n-3 4 0\n5 6 -1 0\n-6 -4 -5 0\n-6 0\n");
  DmmOptions opts;
  opts.max_steps = 3000;
  opts.energy_stride = 7;
  core::Rng rng(77);
  expect_fingerprint(cnf, opts, rng,
                     {3000, 104.80484122314004, 1, 1.0, 429, 3.2654876283458951,
                      1.0, 1257376689362882870ull});
}

TEST(DmmWorkspace, DirtyWorkspaceReproducesAFreshSolve) {
  // Recycled workspace blocks keep the stale values of the last solve
  // (core::Workspace::real); a solve must read none of them.
  core::Rng gen(31);
  const auto small = planted_ksat(gen, 20, 85, 3);
  const Cnf large = random_ksat(gen, 60, 260, 3);
  DmmOptions opts;
  opts.max_steps = 3000;
  opts.energy_stride = 16;
  opts.track_avalanches = true;
  const auto solve_small = [&](core::Workspace& ws) {
    core::Rng rng(8);
    std::vector<Real> v0(20);
    for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
    const DmmResult r = DmmSolver(small.cnf, opts).solve_from(v0, rng, ws);
    return std::pair{r, rng()};
  };

  core::Workspace fresh;
  const auto [want, want_draw] = solve_small(fresh);

  core::Workspace dirty;
  core::Rng rng(9);
  std::vector<Real> v0(60);
  for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
  DmmSolver(large, opts).solve_from(v0, rng, dirty);
  const auto [got, got_draw] = solve_small(dirty);

  EXPECT_EQ(got.satisfied, want.satisfied);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.steps_to_best, want.steps_to_best);
  EXPECT_EQ(got.sim_time, want.sim_time);
  EXPECT_EQ(got.best_unsatisfied, want.best_unsatisfied);
  EXPECT_EQ(got.max_abs_voltage, want.max_abs_voltage);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.energy_trace, want.energy_trace);
  EXPECT_EQ(got.avalanche_sizes, want.avalanche_sizes);
  EXPECT_EQ(got_draw, want_draw);
}

// One solve from `rng` through the 2-lane and the 4-lane build of the step
// loop: every DmmResult field and the next Rng draw must be equal.
DmmResult expect_lanes_agree(const Cnf& cnf, const DmmOptions& opts,
                             const core::Rng& rng) {
  const DmmSolver solver(cnf, opts);
  core::Rng rng2 = rng, rng4 = rng;
  const DmmResult two = detail::dmm_with_lanes(solver, 2).solve(rng2);
  const DmmResult four = detail::dmm_with_lanes(solver, 4).solve(rng4);
  EXPECT_EQ(four.satisfied, two.satisfied);
  EXPECT_EQ(four.assignment, two.assignment);
  EXPECT_EQ(four.steps, two.steps);
  EXPECT_EQ(four.steps_to_best, two.steps_to_best);
  EXPECT_EQ(four.sim_time, two.sim_time);
  EXPECT_EQ(four.best_unsatisfied, two.best_unsatisfied);
  EXPECT_EQ(four.best_unsatisfied_weight, two.best_unsatisfied_weight);
  EXPECT_EQ(four.hit_limit, two.hit_limit);
  EXPECT_EQ(four.energy_trace, two.energy_trace);
  EXPECT_EQ(four.avalanche_sizes, two.avalanche_sizes);
  EXPECT_EQ(four.max_abs_voltage, two.max_abs_voltage);
  EXPECT_EQ(rng4(), rng2());
  return two;
}

TEST(DmmLanes, FourLaneBuildEqualsTwoLaneBuild) {
  if (detail::dmm_lanes() < 4) GTEST_SKIP() << "this CPU has no AVX2";

  // rebootd's `sat` shape and budget; 1001, 1008 and 1011 run all of it.
  DmmOptions rebootd;
  rebootd.max_steps = 20'000;
  std::vector<std::uint64_t> budget_runs;
  for (std::uint64_t seed = 1000; seed <= 1011; ++seed) {
    SCOPED_TRACE("rebootd seed " + std::to_string(seed));
    core::Rng rng(seed);
    const Cnf cnf = random_ksat(rng, 50, 200, 3);
    if (expect_lanes_agree(cnf, rebootd, rng).hit_limit)
      budget_runs.push_back(seed);
  }
  EXPECT_EQ(budget_runs, (std::vector<std::uint64_t>{1001, 1008, 1011}));

  // 51 variables and 213 clauses: both builds end on a partial block (213
  // is odd; 51 and 213 leave 3 and 1 over at 4 lanes), under an energy
  // trace and avalanche tracking.
  core::Rng gen(4242);
  const auto odd = planted_ksat(gen, 51, 213, 3);
  DmmOptions traced;
  traced.max_steps = 4000;
  traced.energy_stride = 7;
  traced.track_avalanches = true;
  {
    SCOPED_TRACE("odd sizes, traced");
    expect_lanes_agree(odd.cnf, traced, core::Rng(1));
  }
  DmmOptions ablated = traced;
  ablated.params.rigidity = false;
  {
    SCOPED_TRACE("rigidity off");
    expect_lanes_agree(odd.cnf, ablated, core::Rng(2));
  }
  ablated = traced;
  ablated.params.long_term_memory = false;
  {
    SCOPED_TRACE("long-term memory off");
    expect_lanes_agree(odd.cnf, ablated, core::Rng(3));
  }
  DmmOptions noisy = traced;
  noisy.params.noise_stddev = 0.3;
  {
    SCOPED_TRACE("noise");
    expect_lanes_agree(odd.cnf, noisy, core::Rng(4));
  }

  // Clauses of other widths take the scalar sweep; the Euler loops still
  // run at the build's lane count.
  core::Rng loops(13);
  const Cnf ising = ising_to_cnf(make_frustrated_loops(loops, 5, 6).model);
  DmmOptions maxsat = traced;
  maxsat.maxsat_mode = true;
  {
    SCOPED_TRACE("weighted 2-literal MaxSAT");
    expect_lanes_agree(ising, maxsat, core::Rng(5));
  }
}

TEST(DmmLanes, SeamOffersOnlyTheBuildsThisCpuRuns) {
  const std::size_t lanes = detail::dmm_lanes();
  EXPECT_TRUE(lanes == 2 || lanes == 4) << lanes;
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  const DmmSolver solver(cnf, {});
  EXPECT_NO_THROW(detail::dmm_with_lanes(solver, 2));
  EXPECT_NO_THROW(detail::dmm_with_lanes(solver, lanes));
  for (const std::size_t bad : {0, 1, 3, 8})
    EXPECT_THROW(detail::dmm_with_lanes(solver, bad), std::invalid_argument)
        << bad;
  if (lanes == 2) {
    EXPECT_THROW(detail::dmm_with_lanes(solver, 4), std::invalid_argument);
  }
}

TEST(Dmm, EmptyFormulaRejected) {
  Cnf cnf(3);
  EXPECT_THROW(DmmSolver(cnf, {}), std::invalid_argument);
}

TEST(Dmm, BadInitialStateRejected) {
  Cnf cnf(2);
  cnf.add_clause({1, 2});
  core::Rng rng(1);
  EXPECT_THROW(DmmSolver(cnf, {}).solve_from({0.1}, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::memcomputing
