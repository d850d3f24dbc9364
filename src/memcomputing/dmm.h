// Digital Memcomputing Machine (DMM) dynamics for k-SAT — the concrete form
// of the paper's Eqs. 1-2.
//
// Each Boolean variable n is a continuous voltage v_n in [-1, 1]; each clause
// m is a self-organizing OR gate carrying two memory variables: a fast one
// x_s (the "resistive memory" conductance of Eq. 1) and a slow one x_l (the
// long-term weight that the feedback of the active elements builds up). With
// C_m the clause unsatisfaction degree, the flow is
//
//   dv_n/dt = sum_m w_m [ x_l x_s G_nm(v) + (1 + zeta x_l)(1 - x_s) R_nm(v) ]
//   dx_s/dt = beta (x_s + eps)(C_m - gamma)          (fast memory)
//   dx_l/dt = alpha (C_m - delta)                    (slow memory)
//
// with the gradient-like term G_nm = q_nm/2 * min_{j != n}(1 - q_jm v_j) and
// the rigidity term R_nm = (q_nm - v_n)/2 applied to the clause's critical
// (minimizing) literal only. This is the published form of the SAT DMM
// (Traversa & Di Ventra 2017; Bearden et al.), whose trajectories are
// point-dissipative: bounded, no periodic orbits, equilibria = solutions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dynamics.h"
#include "core/ensemble.h"
#include "core/random.h"
#include "memcomputing/cnf.h"

namespace rebooting::memcomputing {

using core::Real;

struct DmmParams {
  Real alpha = 5.0;     ///< long-term memory growth rate
  Real beta = 20.0;     ///< short-term memory rate
  Real gamma = 0.25;    ///< short-term memory threshold on C_m
  Real delta = 0.05;    ///< long-term memory threshold on C_m
  Real epsilon = 1e-3;  ///< keeps x_s from sticking at 0
  Real zeta = 0.1;      ///< rigidity weighting by long-term memory
  Real xl_max = 1e4;    ///< long-term memory ceiling (per clause)

  /// Forward-Euler adaptive step: dt = clamp(dv_cap / max|dv|, dt_min, dt_max).
  Real dt_min = 1.0 / 128.0;
  Real dt_max = 10.0;
  Real dv_cap = 0.15;  ///< max voltage change allowed per step

  /// Langevin noise amplitude on the voltage dynamics (E6 robustness study):
  /// each step adds noise_stddev * sqrt(dt) * N(0,1) per variable.
  Real noise_stddev = 0.0;

  /// Ablation switches (DESIGN.md Sec. 4): disable the rigidity term or
  /// freeze the long-term memory at 1.
  bool rigidity = true;
  bool long_term_memory = true;
};

struct DmmOptions {
  DmmParams params{};
  std::size_t max_steps = 2'000'000;
  /// Record sum_m C_m every `energy_stride` steps into result.energy_trace
  /// (0 = off). Used by the E7 dynamics study.
  std::size_t energy_stride = 0;
  /// Record the number of sign flips per integration step (avalanche sizes,
  /// E8 spin-glass study); only nonzero counts are kept.
  bool track_avalanches = false;
  /// In MaxSAT mode the run does not stop at full satisfaction of weights>0
  /// clauses but keeps improving best_unsatisfied_weight until max_steps.
  bool maxsat_mode = false;
};

struct DmmResult {
  bool satisfied = false;
  Assignment assignment;           ///< best assignment seen
  std::size_t steps = 0;           ///< accepted integration steps
  /// Step index at which the best assignment was first reached (the honest
  /// time-to-solution in maxsat_mode, where the run does not stop early).
  std::size_t steps_to_best = 0;
  Real sim_time = 0.0;             ///< integrated dimensionless time
  std::size_t best_unsatisfied = 0;
  Real best_unsatisfied_weight = 0.0;
  bool hit_limit = false;
  std::vector<Real> energy_trace;        ///< if energy_stride > 0
  std::vector<std::size_t> avalanche_sizes;  ///< if track_avalanches
  /// Largest |v| reached — point-dissipativity check (must stay <= 1 + tol).
  Real max_abs_voltage = 0.0;
};

/// Controls for the parallel multi-restart driver (solve_ensemble).
struct DmmEnsembleOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = inline serial.
  std::size_t threads = 0;
  /// Stop launching new restarts once one satisfies (ignored in MaxSAT mode,
  /// which always runs the full budget looking for better weights).
  bool stop_on_first_solution = true;
};

struct DmmEnsembleResult {
  /// Deterministic winner: the lowest-index satisfying restart, or (when
  /// none satisfies) the lowest-index restart achieving the best
  /// unsatisfied count/weight. Bit-identical across thread counts.
  DmmResult best;
  std::size_t best_index = 0;
  bool any_satisfied = false;
  /// Per-restart results; results[i] is valid iff ran[i] != 0. With early
  /// stop, every index <= best_index is guaranteed to have run.
  std::vector<DmmResult> results;
  std::vector<std::uint8_t> ran;
  /// Throughput accounting (timing-dependent, informational only).
  std::size_t trajectories = 0;
  std::size_t threads_used = 0;
  Real wall_seconds = 0.0;
  Real trajectories_per_second = 0.0;
};

/// Outcome of one budgeted slice of a DMM trajectory (DmmSolver::advance).
struct DmmSliceOutcome {
  bool done = false;  ///< trajectory finished; `result` is final
  DmmResult result;   ///< valid only when done
};

class DmmSolver;

namespace detail {
/// Clauses per vector in DmmSolver's step loop on this CPU: 4 where it has
/// AVX2 (x86-64), else 2 (DESIGN.md §16). Picked once per process, from the
/// CPU alone; both builds give bit-identical results.
std::size_t dmm_lanes();
/// Test and benchmark seam: a copy of `solver` whose step loop runs the
/// `lanes`-lane build, 2 anywhere or 4 where dmm_lanes() is 4. Throws
/// std::invalid_argument for any other lane count.
DmmSolver dmm_with_lanes(const DmmSolver& solver, std::size_t lanes);
}  // namespace detail

class DmmSolver {
 public:
  DmmSolver(const Cnf& cnf, DmmOptions options);

  /// Integrates one trajectory from random initial voltages.
  DmmResult solve(core::Rng& rng) const;

  /// Integrates from given initial voltages (size = num_variables; values in
  /// [-1,1]); exposed for the dynamics study and tests.
  DmmResult solve_from(std::vector<Real> v0, core::Rng& rng) const;

  /// As above, but all integration state (voltages, memories, derivatives,
  /// sign bits) is carved from the caller-owned workspace — zero scratch
  /// allocation per solve once the workspace has warmed up. The ensemble
  /// runner hands each worker thread its own workspace.
  DmmResult solve_from(std::vector<Real> v0, core::Rng& rng,
                       core::Workspace& ws) const;

  /// Runs `restarts` independent trajectories across a thread pool, each
  /// seeded from core::Rng::stream(base_seed, restart_index) so every
  /// trajectory — and the selected winner — is reproducible regardless of
  /// thread count or scheduling. Implemented as a single unlimited slice of
  /// solve_ensemble_slice.
  DmmEnsembleResult solve_ensemble(std::size_t restarts,
                                   std::uint64_t base_seed,
                                   const DmmEnsembleOptions& opts = {}) const;

  // --- Preemptible / checkpointable execution (DESIGN.md §12) ---

  /// Packs initial voltages + RNG into a fresh "dmm" checkpoint and performs
  /// the initial digital readout (the trajectory may already be finished if
  /// v0 satisfies the formula). The checkpoint carries *everything* the
  /// trajectory needs — state vector, sign bits, best-so-far records, traces,
  /// RNG stream position — so advance() can run on any thread or process.
  core::Checkpoint begin(std::vector<Real> v0, const core::Rng& rng) const;

  /// Advances a checkpointed trajectory by at most `budget` steps/seconds.
  /// Calling with an unlimited budget integrates to completion. The sequence
  /// of states is bit-identical no matter how the work is sliced: N bounded
  /// advances produce exactly the final result of one unlimited advance.
  DmmSliceOutcome advance(core::Checkpoint& ckpt,
                          const core::SliceBudget& budget,
                          core::Workspace& ws) const;

  /// Reconstructs the DmmResult recorded in a finished checkpoint (throws
  /// std::invalid_argument on an unfinished or foreign checkpoint) — this is
  /// how an ensemble resumed after a crash recovers completed restarts.
  DmmResult result_from_checkpoint(const core::Checkpoint& ckpt) const;

  /// Advances a multi-restart ensemble by one `budget` slice per pending
  /// restart, keeping all resumable state (including partial trajectories
  /// and the early-stop line) in `ckpt` — serializable via its json_dump.
  /// Returns true when the ensemble is complete, at which point `*result`
  /// (if non-null) is filled exactly as solve_ensemble would have filled it.
  bool solve_ensemble_slice(std::size_t restarts, std::uint64_t base_seed,
                            const DmmEnsembleOptions& opts,
                            const core::SliceBudget& budget,
                            core::EnsembleCheckpoint& ckpt,
                            DmmEnsembleResult* result = nullptr) const;

 private:
  friend DmmSolver detail::dmm_with_lanes(const DmmSolver&, std::size_t);
  struct Kernel;  // the integration step over packed state [v | xs | xl]
  /// Clauses the sign bits (1 = variable true) leave unsatisfied, and their
  /// summed weight, accumulated in clause order.
  struct Readout {
    std::size_t unsatisfied = 0;
    Real weight = 0.0;
  };
  Readout readout(std::span<const unsigned char> sign_bits) const;

  std::size_t num_variables_ = 0;
  DmmOptions opts_;
  // The formula in one flat clause layout (DESIGN.md §16): clause c owns
  // literals first_[c] .. first_[c + 1] - 1, each a 0-based variable index
  // in var_ and a sign (+1 / -1) in q_; weight_[c] is its weight.
  std::vector<std::uint32_t> first_;
  std::vector<std::uint32_t> var_;
  std::vector<Real> q_;
  std::vector<Real> weight_;
  bool all_width3_ = true;  ///< every clause has 3 literals (vector sweep)
  std::size_t lanes_ = detail::dmm_lanes();  ///< the step loop's build
};

}  // namespace rebooting::memcomputing
