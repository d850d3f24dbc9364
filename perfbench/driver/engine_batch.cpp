// engine_batch: a fixed in-process batch through the engines' public
// functions, with no service and no scheduler. One batch is:
//
//   - an amplitude-bound circuit of kBigQubits qubits (its state exceeds a
//     core's L2) through QuantumAccelerator::run, with an exactly known
//     two-outcome distribution (see big_circuit);
//   - kNoisyCalls call-bound runs of a kNoisyQubits-qubit circuit with
//     readout noise, one trajectory per shot;
//   - DmmSolver::solve_ensemble on a planted 3-SAT with a fixed step budget;
//   - an oscillator ring swept over coupling resistances through
//     run_ensemble -> CoupledOscillatorNetwork::simulate, plus one matched
//     pair that must lock anti-phase.
//
// Batches repeat until --seconds have passed; batch_s is their median wall.
#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/ensemble.h"
#include "core/random.h"
#include "memcomputing/canonical.h"
#include "memcomputing/cnf.h"
#include "memcomputing/dmm.h"
#include "oscillator/analysis.h"
#include "oscillator/network.h"
#include "quantum/circuit.h"
#include "quantum/compiler.h"
#include "quantum/runtime.h"
#include "telemetry/trace.h"

namespace perfbench {
namespace {

using namespace rebooting;

constexpr int kSetups = 25;
constexpr std::size_t kBigQubits = 17;
constexpr std::size_t kBigLayers = 10;
constexpr std::size_t kBigShots = 256;
constexpr std::size_t kNoisyQubits = 6;
constexpr std::size_t kNoisyCalls = 150;
constexpr std::size_t kNoisyShots = 64;
constexpr double kReadoutFlip = 0.03;
constexpr std::size_t kSatVars = 120;
constexpr std::size_t kSatClauses = 480;
constexpr std::size_t kRestarts = 8;
constexpr std::size_t kDmmSteps = 2000;
constexpr std::size_t kRingSize = 4;
constexpr std::size_t kSweepPoints = 8;
constexpr double kSweepDuration = 20e-6;
constexpr double kOscDt = 1e-9;
/// Parallel engines use at most this many threads, so the batch does not
/// depend on how many cores a noisy neighbour leaves free.
constexpr std::size_t kMaxThreads = 2;

struct Inputs {
  quantum::Circuit big{kBigQubits};
  std::vector<double> big_exact;  ///< exact outcome distribution
  quantum::Circuit noisy{kNoisyQubits};
  std::vector<double> noisy_exact;  ///< exact outcome distribution
  memcomputing::PlantedInstance sat;
  std::vector<oscillator::CoupledOscillatorNetwork> ring;
  oscillator::CoupledOscillatorNetwork pair{oscillator::OscillatorParams{}, 2};
};

/// GHZ preparation, kBigLayers layers of seeded rz rotations and CZ
/// brickwork, then the GHZ preparation undone. The diagonal layers only
/// give |1...1> a phase phi = sum(theta) + pi * (#CZ) relative to |0...0>,
/// so the output is exactly |0> with probability cos^2(phi/2) and |1> (qubit
/// 0 set) otherwise. No gate meets its inverse, so the peephole optimizer
/// cannot shrink the circuit away. Returns P(outcome 1).
double big_circuit(core::Rng& rng, quantum::Circuit& c) {
  c = quantum::Circuit(kBigQubits);
  c.h(0);
  for (std::size_t q = 0; q + 1 < kBigQubits; ++q) c.cx(q, q + 1);
  double phi = 0.0;
  for (std::size_t layer = 0; layer < kBigLayers; ++layer) {
    for (std::size_t q = 0; q < kBigQubits; ++q) {
      const double theta = rng.uniform(0.1, 3.0);
      c.rz(q, theta);
      phi += theta;
    }
    for (std::size_t q = layer % 2; q + 1 < kBigQubits; q += 2) {
      c.cz(q, q + 1);
      phi += core::kPi;
    }
  }
  for (std::size_t q = kBigQubits - 1; q-- > 0;) c.cx(q, q + 1);
  c.h(0);
  const double s = std::sin(phi / 2.0);
  return s * s;
}

quantum::Circuit noisy_circuit(core::Rng& rng) {
  quantum::Circuit c(kNoisyQubits);
  for (int layer = 0; layer < 3; ++layer) {
    for (std::size_t q = 0; q < kNoisyQubits; ++q) c.ry(q, rng.uniform(0.2, 2.9));
    for (std::size_t q = layer % 2; q + 1 < kNoisyQubits; q += 2) c.cz(q, q + 1);
  }
  return c;
}

/// Ideal distribution of `c`, convolved with independent readout flips.
std::vector<double> exact_with_readout(const quantum::Circuit& c, Result& out) {
  const quantum::StateVector state = quantum::simulate(c);
  out.check(std::abs(state.norm() - 1.0) <= 1e-9, "state norm is not 1 +- 1e-9");
  const std::vector<double> ideal = state.probabilities();
  std::vector<double> noisy(ideal.size(), 0.0);
  for (std::size_t x = 0; x < ideal.size(); ++x)
    for (std::size_t y = 0; y < ideal.size(); ++y) {
      const int flips = __builtin_popcountll(x ^ y);
      noisy[y] += ideal[x] * std::pow(kReadoutFlip, flips) *
                  std::pow(1.0 - kReadoutFlip, static_cast<int>(kNoisyQubits) - flips);
    }
  return noisy;
}

Inputs build_inputs(std::uint64_t seed, Result& out) {
  Inputs in;
  core::Rng rng(mix64(seed));
  const double p1 = big_circuit(rng, in.big);
  in.big_exact.assign(1ull << kBigQubits, 0.0);
  in.big_exact[0] = 1.0 - p1;
  in.big_exact[1] = p1;
  in.noisy = noisy_circuit(rng);
  in.noisy_exact = exact_with_readout(in.noisy, out);
  in.sat = memcomputing::planted_ksat(rng, kSatVars, kSatClauses, 3);
  for (std::size_t p = 0; p < kSweepPoints; ++p) {
    oscillator::CoupledOscillatorNetwork net(oscillator::OscillatorParams{}, kRingSize);
    for (std::size_t o = 0; o < kRingSize; ++o)
      net.set_gate_voltage(o, 1.0 + rng.uniform(-0.03, 0.03));
    const double r = 10e3 + 5e3 * static_cast<double>(p);
    for (std::size_t o = 0; o < kRingSize; ++o)
      net.add_coupling({.a = o, .b = (o + 1) % kRingSize, .r = r, .c = 1e-12});
    in.ring.push_back(std::move(net));
  }
  in.pair.set_gate_voltage(0, 1.0);
  in.pair.set_gate_voltage(1, 1.0);
  in.pair.add_coupling({.a = 0, .b = 1, .r = 20e3, .c = 1e-12});
  return in;
}

/// 5-sigma binomial agreement of observed counts with an exact distribution.
/// Outcomes expected fewer than 10 times are pooled into one bin, where the
/// normal approximation holds again.
bool matches_exact(const std::map<std::uint64_t, std::size_t>& counts,
                   const std::vector<double>& exact, std::size_t shots) {
  const auto within = [&](double observed, double p) {
    const double n = static_cast<double>(shots);
    return std::abs(observed - n * p) <= 5.0 * std::sqrt(n * p * (1.0 - p)) + 1e-9;
  };
  double rare_p = 0.0;
  double rare_observed = 0.0;
  std::size_t seen = 0;
  for (std::size_t x = 0; x < exact.size(); ++x) {
    const auto it = counts.find(x);
    const double observed = it == counts.end() ? 0.0 : static_cast<double>(it->second);
    seen += static_cast<std::size_t>(observed);
    if (exact[x] * static_cast<double>(shots) < 10.0) {
      rare_p += exact[x];
      rare_observed += observed;
    } else if (!within(observed, exact[x])) {
      return false;
    }
  }
  return seen == shots && within(rare_observed, std::min(rare_p, 1.0));
}

struct BatchTimes {
  double wall_s = 0.0;
  double jobs_s = 0.0;  ///< Σ wall of the batch's engine calls
  double big_s = 0.0;
  double dmm_s = 0.0;
  double dmm_traj_per_s = 0.0;
};

}  // namespace

void run_engine_batch(const RunOptions& opts, Result& out) {
  std::vector<double> setups;
  Inputs in;
  for (int s = 0; s < kSetups; ++s) {
    const auto t0 = Clock::now();
    Result scratch;
    in = build_inputs(opts.seed, scratch);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (s == kSetups - 1) {
      out.correct = out.correct && scratch.correct;
      out.check_failures.insert(out.check_failures.end(),
                                scratch.check_failures.begin(),
                                scratch.check_failures.end());
    }
  }
  out.set("setup_s", median(setups), "s");

  const std::size_t threads = std::min(kMaxThreads, cpu_count());
  const quantum::QuantumAccelerator big_device(
      {.topology = quantum::Topology::all_to_all(kBigQubits)});
  quantum::QuantumDeviceConfig noisy_config{
      .topology = quantum::Topology::line(kNoisyQubits)};
  noisy_config.noise.readout_flip = kReadoutFlip;
  const quantum::QuantumAccelerator noisy_device(noisy_config);

  memcomputing::DmmOptions dmm_options;
  dmm_options.max_steps = kDmmSteps;
  dmm_options.maxsat_mode = true;  // a fixed budget: every restart runs kDmmSteps
  const memcomputing::DmmSolver solver(in.sat.cnf, dmm_options);
  memcomputing::DmmEnsembleOptions ensemble_options;
  ensemble_options.threads = threads;
  ensemble_options.stop_on_first_solution = false;

  oscillator::SimulationOptions sweep_sim;
  sweep_sim.duration = kSweepDuration;
  sweep_sim.dt = kOscDt;
  oscillator::SimulationOptions pair_sim = sweep_sim;
  pair_sim.duration = 80e-6;
  const double osc_steps = std::round(kSweepDuration / kOscDt);

  std::vector<BatchTimes> batches;
  std::vector<double> noisy_call_ms;
  std::vector<double> sim_ns;     // per simulate call: wall / (osc x steps)
  double dmm_steps_total = 0.0;
  std::uint64_t restarts = 0;
  std::uint64_t restarts_satisfied = 0;
  std::size_t big_gates = 0;
  const std::size_t jobs_per_batch = 1 + kNoisyCalls + 1 + 1 + 1;

  const auto run_start = Clock::now();
  std::uint64_t batch_index = 0;
  while (batches.size() < 2 || seconds_between(run_start, Clock::now()) < opts.seconds) {
    TELEM_TRACE_SCOPE("bench.batch");
    core::Rng rng = core::Rng::stream(opts.seed, batch_index);
    BatchTimes times;
    const auto batch_t0 = Clock::now();
    const auto job = [&](const char* what, const auto& body) {
      ++out.attempted;
      const auto t0 = Clock::now();
      try {
        body();
      } catch (const std::exception& e) {
        ++out.failed;
        out.check(false, std::string(what) + " threw: " + e.what());
      }
      times.jobs_s += seconds_between(t0, Clock::now());
    };

    job("quantum state-vector run", [&] {
      TELEM_TRACE_SCOPE("bench.quantum_sv");
      const auto t0 = Clock::now();
      const auto result = big_device.run(in.big, kBigShots, rng);
      times.big_s = seconds_between(t0, Clock::now());
      big_gates = result.compile_report.optimized_gates;
      std::vector<double> exact = in.big_exact;
      if (opts.inject_wrong_expectation && batch_index == 0)
        std::swap(exact[0], exact[2]);
      out.check(matches_exact(result.counts, exact, kBigShots),
                "GHZ circuit distribution is off the exact one by > 5 sigma");
    });

    std::map<std::uint64_t, std::size_t> noisy_counts;
    for (std::size_t call = 0; call < kNoisyCalls; ++call) {
      job("noisy circuit run", [&] {
        TELEM_TRACE_SCOPE("bench.quantum_noisy");
        const auto t0 = Clock::now();
        const auto result = noisy_device.run(in.noisy, kNoisyShots, rng);
        noisy_call_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
        for (const auto& [state, count] : result.counts) noisy_counts[state] += count;
      });
    }
    out.check(matches_exact(noisy_counts, in.noisy_exact, kNoisyCalls * kNoisyShots),
              "noisy circuit distribution is off the exact one by > 5 sigma");

    job("dmm ensemble", [&] {
      TELEM_TRACE_SCOPE("bench.dmm_ensemble");
      const auto t0 = Clock::now();
      const auto result = solver.solve_ensemble(kRestarts, mix64(opts.seed + batch_index),
                                                ensemble_options);
      times.dmm_s = seconds_between(t0, Clock::now());
      times.dmm_traj_per_s = result.trajectories_per_second;
      for (std::size_t r = 0; r < result.results.size(); ++r) {
        if (!result.ran[r]) continue;
        const auto& traj = result.results[r];
        ++restarts;
        dmm_steps_total += static_cast<double>(traj.steps);
        if (traj.satisfied) {
          ++restarts_satisfied;
          out.check(in.sat.cnf.satisfied(traj.assignment),
                    "DMM assignment reported satisfied violates its CNF");
        }
      }
    });

    job("oscillator sweep", [&] {
      TELEM_TRACE_SCOPE("bench.osc_sweep");
      std::vector<double> ns(kSweepPoints, 0.0);
      std::vector<double> freq(kSweepPoints * kRingSize, 0.0);
      core::EnsembleOptions eo;
      eo.threads = threads;
      core::run_ensemble(kSweepPoints, eo, [&](std::size_t i, core::Workspace& ws) {
        const auto t0 = Clock::now();
        const oscillator::Trace trace = in.ring[i].simulate(sweep_sim, ws);
        ns[i] = seconds_between(t0, Clock::now()) * 1e9 /
                (static_cast<double>(kRingSize) * osc_steps);
        for (std::size_t o = 0; o < kRingSize; ++o)
          freq[i * kRingSize + o] = oscillator::trace_frequency(trace, o);
        return true;
      });
      sim_ns.insert(sim_ns.end(), ns.begin(), ns.end());
      for (const double f : freq)
        out.check(f > 1e6 && f < 50e6, "a ring oscillator stopped oscillating");
    });

    job("oscillator pair", [&] {
      TELEM_TRACE_SCOPE("bench.osc_pair");
      const oscillator::Trace trace = in.pair.simulate(pair_sim);
      const double phase = oscillator::phase_difference(trace, 0, 1);
      out.check(oscillator::is_locked(trace, 0, 1) && std::abs(phase - core::kPi) < 0.5,
                "matched coupled pair did not lock anti-phase");
    });

    times.wall_s = seconds_between(batch_t0, Clock::now());
    batches.push_back(times);
    ++batch_index;
  }

  const auto pick = [&](double BatchTimes::*field) {
    std::vector<double> v;
    for (const auto& b : batches) v.push_back(b.*field);
    return median(v);
  };
  const double batch_s = pick(&BatchTimes::wall_s);
  const double dmm_s = pick(&BatchTimes::dmm_s);

  out.set("batch_s", batch_s, "s");
  out.set("peak_rps", static_cast<double>(jobs_per_batch) / batch_s, "1/s");
  out.set("lat_p50_ms", windowed_quantile(noisy_call_ms, 0.5), "ms");
  out.set("lat_p99_ms", windowed_quantile(noisy_call_ms, 0.99), "ms");
  out.set("ok_frac",
          out.attempted ? static_cast<double>(out.attempted - out.failed) / out.attempted
                        : 0.0,
          "frac");
  out.set("failed_frac",
          out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0, "frac");
  out.set("solved_frac",
          restarts ? static_cast<double>(restarts_satisfied) / restarts : 0.0, "frac");

  out.set("quantum.sv_ns_per_amp_gate",
          big_gates ? pick(&BatchTimes::big_s) * 1e9 /
                          (static_cast<double>(big_gates) *
                           std::ldexp(1.0, static_cast<int>(kBigQubits)))
                    : 0.0,
          "ns");
  out.set("quantum.noisy_us_per_shot",
          quantile(noisy_call_ms, 0.5) * 1e3 / static_cast<double>(kNoisyShots), "us");
  const double steps_per_batch = batches.empty() ? 0.0 : dmm_steps_total / batches.size();
  out.set("dmm.steps", steps_per_batch, "count");
  out.set("dmm.ns_per_clause_step",
          steps_per_batch > 0 ? dmm_s * static_cast<double>(threads) * 1e9 /
                                    (steps_per_batch * kSatClauses)
                              : 0.0,
          "ns");
  out.set("ensemble.traj_per_s", pick(&BatchTimes::dmm_traj_per_s), "1/s");
  out.set("osc.ns_per_osc_step", median(sim_ns), "ns");
  // Share of the batch wall time outside the engine calls (input checks,
  // bookkeeping), timed around the calls this file makes.
  out.set("budget.unaccounted_frac",
          1.0 - pick(&BatchTimes::jobs_s) / batch_s, "frac");

  if (opts.layers) {
    // Uncached compiles of the batch circuits.
    std::vector<double> compile_ms;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      quantum::compile(in.big, quantum::Topology::all_to_all(kBigQubits));
      quantum::compile(in.noisy, quantum::Topology::line(kNoisyQubits));
      compile_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    out.set("quantum.compile_ms", median(compile_ms), "ms");

    std::vector<double> canon_ms;
    for (int r = 0; r < 3; ++r) {
      const auto t0 = Clock::now();
      const auto canon = memcomputing::canonicalize(in.sat.cnf);
      canon_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      out.check(canon.cnf.num_clauses() == in.sat.cnf.num_clauses(),
                "canonical CNF lost clauses");
    }
    out.set("dmm.canon_ms", median(canon_ms), "ms");

    // One-thread reference for the ensemble's parallel efficiency.
    memcomputing::DmmEnsembleOptions serial = ensemble_options;
    serial.threads = 1;
    const auto t0 = Clock::now();
    solver.solve_ensemble(kRestarts, mix64(opts.seed), serial);
    const double serial_s = seconds_between(t0, Clock::now());
    out.set("ensemble.efficiency",
            dmm_s > 0 ? serial_s / dmm_s / static_cast<double>(threads) : 0.0, "frac");
  }

  out.set("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
