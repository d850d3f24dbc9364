#include "memcomputing/dmm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace rebooting::memcomputing {

DmmSolver::DmmSolver(const Cnf& cnf, DmmOptions options)
    : num_variables_(cnf.num_variables()), opts_(options) {
  if (cnf.num_variables() == 0 || cnf.num_clauses() == 0)
    throw std::invalid_argument("DmmSolver: empty formula");
  first_.push_back(0);
  for (const Clause& c : cnf.clauses()) {
    for (const Literal lit : c.literals) {
      var_.push_back(static_cast<std::uint32_t>(std::abs(lit)) - 1);
      q_.push_back(lit > 0 ? 1.0 : -1.0);
    }
    if (var_.size() > std::numeric_limits<std::uint32_t>::max())
      throw std::invalid_argument("DmmSolver: over 2^32 - 1 literals");
    first_.push_back(static_cast<std::uint32_t>(var_.size()));
    weight_.push_back(c.weight);
    all_width3_ = all_width3_ && c.literals.size() == 3;
  }
}

namespace {

// Two clauses per vector: SSE2 on x86-64, NEON on AArch64 (GCC and Clang
// vector extensions, no flag). Each lane is plain IEEE double arithmetic,
// so it computes bit for bit what the same scalar expression does.
using Vec2 = Real __attribute__((vector_size(2 * sizeof(Real))));

/// Lane-wise `a < b ? a : b`.
inline Vec2 vmin(Vec2 a, Vec2 b) { return a < b ? a : b; }

}  // namespace

// Static-dispatch dynamics kernel over the packed state y = [v | xs | xl]
// (n voltages, then m fast memories, then m slow memories). rhs() is the one
// clause sweep of Eqs. 1-2: it fills dydt with (dv, dxs, dxl) and leaves the
// summed clause unsatisfaction in clause_energy for the energy traces. Every
// dv sum adds its terms in clause order, then literal order, and every term
// keeps the operation order of Eqs. 1-2 as written below, so the sweep is
// bit-identical however it is vectorized (DESIGN.md §16). The solve loop
// calls it directly (no std::function), so it inlines into the step loop.
struct DmmSolver::Kernel {
  const DmmSolver& solver;
  Real clause_energy = 0.0;

  void rhs(Real /*t*/, std::span<const Real> y, std::span<Real> dydt) {
    const std::size_t n = solver.num_variables_;
    const std::size_t m = solver.weight_.size();
    const auto v = y.first(n);
    const auto xs = y.subspan(n, m);
    const auto xl = y.subspan(n + m, m);
    const auto dv = dydt.first(n);
    const auto dxs = dydt.subspan(n, m);
    const auto dxl = dydt.subspan(n + m, m);

    std::fill(dv.begin(), dv.end(), 0.0);
    if (solver.all_width3_)
      sweep3(v, xs, xl, dv, dxs, dxl);
    else
      sweep_any(v, xs, xl, dv, dxs, dxl);
  }

 private:
  // Any clause widths, one clause at a time. With s_i = 1 - q_i v_i,
  // min1/min2 are the smallest and second-smallest s (2.0 when absent) and
  // arg1 the first literal that attains min1: the gradient term of literal
  // i takes the minimum over the *other* literals (min2 for arg1, min1 for
  // the rest), and rigidity holds the critical literal arg1 alone.
  void sweep_any(std::span<const Real> v, std::span<const Real> xs,
                 std::span<const Real> xl, std::span<Real> dv,
                 std::span<Real> dxs, std::span<Real> dxl) {
    const DmmParams p = solver.opts_.params;  // a copy no store can alias
    const std::uint32_t* first = solver.first_.data();
    const std::uint32_t* var = solver.var_.data();
    const Real* q = solver.q_.data();
    const Real* w = solver.weight_.data();
    Real energy = 0.0;
    for (std::size_t c = 0; c < xs.size(); ++c) {
      Real min1 = 2.0, min2 = 2.0;
      std::uint32_t arg1 = first[c];
      for (std::uint32_t l = first[c]; l < first[c + 1]; ++l) {
        const Real s = 1.0 - q[l] * v[var[l]];
        const bool below1 = s < min1;
        min2 = below1 ? min1 : (s < min2 ? s : min2);
        min1 = below1 ? s : min1;
        arg1 = below1 ? l : arg1;
      }
      const Real cm = 0.5 * min1;  // C_m in [0, 1]
      energy += cm;

      const Real gate_g = xl[c] * xs[c];
      const Real gate_r = (1.0 + p.zeta * xl[c]) * (1.0 - xs[c]);
      const Real weight = w[c];
      for (std::uint32_t l = first[c]; l < first[c + 1]; ++l) {
        const bool critical = l == arg1;
        const Real g_term = 0.5 * q[l] * (critical ? min2 : min1);
        const Real r_term =
            p.rigidity && critical ? 0.5 * (q[l] - v[var[l]]) : 0.0;
        dv[var[l]] += weight * (gate_g * g_term + gate_r * r_term);
      }
      dxs[c] = p.beta * (xs[c] + p.epsilon) * (cm - p.gamma);
      dxl[c] = p.long_term_memory ? p.alpha * (cm - p.delta) : 0.0;
    }
    clause_energy = energy;
  }

  // All-3-literal formulas, two clauses per vector. A vector pass with no
  // data-dependent branch computes both clauses' terms; a scalar pass then
  // adds them into dv in clause order, then literal order. For s0, s1, s2
  // the minimum over the other literals is ex_i = min(s_j, s_k, 2), and the
  // critical literal is 0 when min(s0, 2) <= min(s1, s2), else 1 when
  // s1 < min(s0, 2) and s1 <= s2, else 2: the values and the pick of
  // sweep_any, from compares instead of jumps.
  void sweep3(std::span<const Real> v, std::span<const Real> xs,
              std::span<const Real> xl, std::span<Real> dv,
              std::span<Real> dxs, std::span<Real> dxl) {
    const DmmParams p = solver.opts_.params;  // a copy no store can alias
    const std::uint32_t* var = solver.var_.data();
    const Real* q = solver.q_.data();
    const Real* w = solver.weight_.data();
    const Vec2 two = {2.0, 2.0};
    const std::size_t m = xs.size();
    Real energy = 0.0;
    for (std::size_t c = 0; c < m; c += 2) {
      // Clause c in lane 0, clause d in lane 1. An odd last clause fills
      // both lanes, and only lane 0 is kept.
      const bool pair = c + 1 < m;
      const std::size_t d = pair ? c + 1 : c;
      const std::size_t a = 3 * c, b = 3 * d;
      const Vec2 q0 = {q[a], q[b]}, q1 = {q[a + 1], q[b + 1]},
                 q2 = {q[a + 2], q[b + 2]};
      const Vec2 v0 = {v[var[a]], v[var[b]]},
                 v1 = {v[var[a + 1]], v[var[b + 1]]},
                 v2 = {v[var[a + 2]], v[var[b + 2]]};
      const Vec2 s0 = 1.0 - q0 * v0, s1 = 1.0 - q1 * v1, s2 = 1.0 - q2 * v2;

      const Vec2 a0 = vmin(s0, two);  // running minimum after literal 0
      const Vec2 m12 = vmin(s1, s2);
      const Vec2 ex0 = vmin(m12, two), ex1 = vmin(a0, s2), ex2 = vmin(a0, s1);
      const Vec2 cm = 0.5 * vmin(a0, m12);  // C_m = min1 / 2

      const Vec2 xsv = {xs[c], xs[d]}, xlv = {xl[c], xl[d]}, wv = {w[c], w[d]};
      const Vec2 gate_g = xlv * xsv;
      const Vec2 gate_r = (1.0 + p.zeta * xlv) * (1.0 - xsv);
      Vec2 r0 = {}, r1 = {}, r2 = {};
      if (p.rigidity) {
        r0 = a0 <= m12 ? 0.5 * (q0 - v0) : r0;
        r1 = (s1 < a0) & (s1 <= s2) ? 0.5 * (q1 - v1) : r1;
        r2 = s2 < ex2 ? 0.5 * (q2 - v2) : r2;
      }
      const Vec2 t0 = wv * (gate_g * (0.5 * q0 * ex0) + gate_r * r0);
      const Vec2 t1 = wv * (gate_g * (0.5 * q1 * ex1) + gate_r * r1);
      const Vec2 t2 = wv * (gate_g * (0.5 * q2 * ex2) + gate_r * r2);
      const Vec2 dxs2 = p.beta * (xsv + p.epsilon) * (cm - p.gamma);
      const Vec2 dxl2 = p.long_term_memory ? p.alpha * (cm - p.delta) : Vec2{};

      energy += cm[0];
      dv[var[a]] += t0[0], dv[var[a + 1]] += t1[0], dv[var[a + 2]] += t2[0];
      dxs[c] = dxs2[0], dxl[c] = dxl2[0];
      if (pair) {
        energy += cm[1];
        dv[var[b]] += t0[1], dv[var[b + 1]] += t1[1], dv[var[b + 2]] += t2[1];
        dxs[d] = dxs2[1], dxl[d] = dxl2[1];
      }
    }
    clause_energy = energy;
  }
};

DmmSolver::Readout DmmSolver::readout(
    std::span<const unsigned char> sign_bits) const {
  // A literal holds when its variable's bit differs from its sign bit (set
  // on a negated literal's q = -1).
  const auto holds = [&](std::size_t l) {
    return (sign_bits[var_[l]] != 0) != std::signbit(q_[l]);
  };
  Readout r;
  for (std::size_t c = 0; c < weight_.size(); ++c) {
    bool satisfied = false;
    if (all_width3_) {
      satisfied = holds(3 * c) | holds(3 * c + 1) | holds(3 * c + 2);
    } else {
      for (std::size_t l = first_[c]; l < first_[c + 1]; ++l)
        satisfied |= holds(l);
    }
    if (!satisfied) {
      ++r.unsatisfied;
      r.weight += weight_[c];
    }
  }
  return r;
}

namespace {

// Checkpoint layout for tag "dmm". The packed state vector [v | xs | xl]
// lives in Checkpoint::state; everything else fans out over the envelope's
// side channels at the fixed offsets below. All of it together is the
// *entire* mutable state of the solve loop, which is what makes a resumed
// trajectory bit-identical to an uninterrupted one.
constexpr const char kDmmTag[] = "dmm";
// flags: [finished, satisfied, hit_limit, sign_bit[n], best assignment[n+1]]
constexpr std::size_t kFlagFinished = 0;
constexpr std::size_t kFlagSatisfied = 1;
constexpr std::size_t kFlagHitLimit = 2;
constexpr std::size_t kFlagSign = 3;
// counters: [steps_to_best, best_unsatisfied, n, m, avalanche sizes...]
constexpr std::size_t kCtrStepsToBest = 0;
constexpr std::size_t kCtrBestUnsat = 1;
constexpr std::size_t kCtrVars = 2;
constexpr std::size_t kCtrClauses = 3;
constexpr std::size_t kCtrTail = 4;
// aux: [best_weight, max_abs_voltage, final weight, energy trace...]
constexpr std::size_t kAuxBestWeight = 0;
constexpr std::size_t kAuxMaxAbsV = 1;
constexpr std::size_t kAuxFinalWeight = 2;
constexpr std::size_t kAuxTail = 3;

}  // namespace

DmmResult DmmSolver::solve(core::Rng& rng) const {
  std::vector<Real> v0(num_variables_);
  for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
  return solve_from(std::move(v0), rng);
}

DmmResult DmmSolver::solve_from(std::vector<Real> v0, core::Rng& rng) const {
  // One lazily grown arena per thread keeps the legacy signature
  // allocation-free after its first call.
  thread_local core::Workspace ws;
  return solve_from(std::move(v0), rng, ws);
}

DmmResult DmmSolver::solve_from(std::vector<Real> v0, core::Rng& rng,
                                core::Workspace& ws) const {
  // One unlimited slice is exactly the uninterrupted solve; the caller's
  // generator is advanced past the noise draws via the checkpoint, keeping
  // the legacy by-reference RNG contract.
  core::Checkpoint ckpt = begin(std::move(v0), rng);
  DmmSliceOutcome out = advance(ckpt, core::SliceBudget{}, ws);
  rng = core::Rng::restore(ckpt.rng);
  return std::move(out.result);
}

core::Checkpoint DmmSolver::begin(std::vector<Real> v0,
                                  const core::Rng& rng) const {
  const std::size_t n = num_variables_;
  const std::size_t m = weight_.size();
  if (v0.size() != n)
    throw std::invalid_argument("DmmSolver::begin: bad v0 size");

  core::Checkpoint ckpt;
  ckpt.tag = kDmmTag;
  ckpt.rng = rng.save();
  ckpt.state.resize(n + 2 * m);
  std::copy(v0.begin(), v0.end(), ckpt.state.begin());
  std::fill(ckpt.state.begin() + n, ckpt.state.begin() + n + m, 0.5);
  std::fill(ckpt.state.begin() + n + m, ckpt.state.end(), 1.0);
  ckpt.flags.assign(kFlagSign + n + (n + 1), 0);
  for (std::size_t i = 0; i < n; ++i)
    ckpt.flags[kFlagSign + i] = v0[i] > 0.0 ? 1 : 0;
  ckpt.counters.assign(kCtrTail, 0);
  ckpt.counters[kCtrBestUnsat] = m;
  ckpt.counters[kCtrVars] = n;
  ckpt.counters[kCtrClauses] = m;
  ckpt.aux.assign(kAuxTail, 0.0);
  ckpt.aux[kAuxBestWeight] = -1.0;  // negative = nothing recorded yet

  // Initial digital readout, identical to the head of the classic solve: it
  // seeds best_unsatisfied / best assignment, and may finish the trajectory
  // outright when v0 already satisfies the formula.
  const Readout initial = readout(std::span(ckpt.flags).subspan(kFlagSign, n));
  const std::size_t unsat = initial.unsatisfied;
  ckpt.counters[kCtrBestUnsat] = std::min<std::uint64_t>(m, unsat);
  ckpt.aux[kAuxBestWeight] =
      opts_.maxsat_mode ? initial.weight : static_cast<Real>(unsat);
  std::copy_n(ckpt.flags.begin() + kFlagSign, n,
              ckpt.flags.begin() + kFlagSign + n + 1);
  if (unsat == 0) {
    ckpt.flags[kFlagFinished] = 1;
    ckpt.flags[kFlagSatisfied] = 1;
    ckpt.counters[kCtrBestUnsat] = 0;
    ckpt.aux[kAuxFinalWeight] = 0.0;
  }
  return ckpt;
}

DmmResult DmmSolver::result_from_checkpoint(
    const core::Checkpoint& ckpt) const {
  const std::size_t n = num_variables_;
  const std::size_t m = weight_.size();
  if (ckpt.tag != kDmmTag || ckpt.counters.size() < kCtrTail ||
      ckpt.counters[kCtrVars] != n || ckpt.counters[kCtrClauses] != m ||
      ckpt.flags.size() != kFlagSign + n + (n + 1) ||
      ckpt.state.size() != n + 2 * m || ckpt.aux.size() < kAuxTail)
    throw std::invalid_argument(
        "DmmSolver::result_from_checkpoint: foreign or corrupt checkpoint");
  if (!ckpt.flags[kFlagFinished])
    throw std::invalid_argument(
        "DmmSolver::result_from_checkpoint: trajectory not finished");

  DmmResult result;
  result.satisfied = ckpt.flags[kFlagSatisfied] != 0;
  result.hit_limit = ckpt.flags[kFlagHitLimit] != 0;
  result.steps = static_cast<std::size_t>(ckpt.step);
  result.steps_to_best = static_cast<std::size_t>(ckpt.counters[kCtrStepsToBest]);
  result.sim_time = ckpt.t;
  result.best_unsatisfied = static_cast<std::size_t>(ckpt.counters[kCtrBestUnsat]);
  result.best_unsatisfied_weight = ckpt.aux[kAuxFinalWeight];
  result.max_abs_voltage = ckpt.aux[kAuxMaxAbsV];
  result.assignment.assign(n + 1, false);
  for (std::size_t i = 0; i <= n; ++i)
    result.assignment[i] = ckpt.flags[kFlagSign + n + i] != 0;
  result.energy_trace.assign(ckpt.aux.begin() + kAuxTail, ckpt.aux.end());
  result.avalanche_sizes.clear();
  for (std::size_t i = kCtrTail; i < ckpt.counters.size(); ++i)
    result.avalanche_sizes.push_back(
        static_cast<std::size_t>(ckpt.counters[i]));
  return result;
}

DmmSliceOutcome DmmSolver::advance(core::Checkpoint& ckpt,
                                   const core::SliceBudget& budget,
                                   core::Workspace& ws) const {
  TELEM_SPAN("dmm.solve");
  TELEM_TRACE_SCOPE("dmm.solve");
  const std::size_t n = num_variables_;
  const std::size_t m = weight_.size();
  if (ckpt.tag != kDmmTag || ckpt.counters.size() < kCtrTail ||
      ckpt.counters[kCtrVars] != n || ckpt.counters[kCtrClauses] != m ||
      ckpt.flags.size() != kFlagSign + n + (n + 1) ||
      ckpt.state.size() != n + 2 * m || ckpt.aux.size() < kAuxTail)
    throw std::invalid_argument(
        "DmmSolver::advance: foreign or corrupt checkpoint");

  DmmSliceOutcome out;
  if (ckpt.flags[kFlagFinished]) {
    out.done = true;
    out.result = result_from_checkpoint(ckpt);
    return out;
  }

  const DmmParams& p = opts_.params;
  // Hoisted enable check: the integration loop below runs up to max_steps
  // (millions) iterations; per-step telemetry must cost nothing when off.
  const bool telem = telemetry::Telemetry::enabled();
  std::size_t dt_clamped_min = 0;
  std::size_t dt_clamped_max = 0;
  // Stride for the clause-energy trajectory histogram — full per-step
  // recording would dominate the solve at registry-lock granularity.
  constexpr std::size_t kEnergyTelemStride = 64;

  // All integration scratch comes from the workspace: packed state y, its
  // derivative, and the digital sign bits. The Scope recycles the blocks for
  // the next slice on this thread; resumable state is copied in from the
  // checkpoint here and copied back out at every slice boundary.
  const auto ws_scope = ws.scope();
  const std::span<Real> y = ws.real(n + 2 * m);
  const std::span<Real> dydt = ws.real(n + 2 * m);
  const std::span<unsigned char> sign_bit = ws.bytes(n);

  const auto v = y.first(n);
  const auto xs = y.subspan(n, m);
  const auto xl = y.subspan(n + m, m);
  const auto dv = dydt.first(n);
  const auto dxs = dydt.subspan(n, m);
  const auto dxl = dydt.subspan(n + m, m);

  std::copy(ckpt.state.begin(), ckpt.state.end(), y.begin());
  std::copy(ckpt.flags.begin() + kFlagSign,
            ckpt.flags.begin() + kFlagSign + n, sign_bit.begin());

  core::Rng rng = core::Rng::restore(ckpt.rng);
  Kernel kernel{*this};

  DmmResult result;
  result.steps = static_cast<std::size_t>(ckpt.step);
  result.sim_time = ckpt.t;
  result.steps_to_best = static_cast<std::size_t>(ckpt.counters[kCtrStepsToBest]);
  result.best_unsatisfied = static_cast<std::size_t>(ckpt.counters[kCtrBestUnsat]);
  result.max_abs_voltage = ckpt.aux[kAuxMaxAbsV];
  result.energy_trace.assign(ckpt.aux.begin() + kAuxTail, ckpt.aux.end());
  for (std::size_t i = kCtrTail; i < ckpt.counters.size(); ++i)
    result.avalanche_sizes.push_back(
        static_cast<std::size_t>(ckpt.counters[i]));
  result.assignment.assign(n + 1, false);
  for (std::size_t i = 0; i <= n; ++i)
    result.assignment[i] = ckpt.flags[kFlagSign + n + i] != 0;
  Real best_weight = ckpt.aux[kAuxBestWeight];

  const std::size_t steps_at_entry = result.steps;
  std::size_t evaluations = 0;

  // Counter dump on every return path (finished or preempted), while the
  // dmm.solve span is still open. Only this slice's step delta is added so
  // sliced and unsliced runs report identical totals.
  struct TelemFlush {
    const DmmResult& result;
    std::size_t entry_steps;
    const std::size_t& clamped_min;
    const std::size_t& clamped_max;
    const std::size_t& evaluations;
    std::size_t clauses;
    ~TelemFlush() {
      if (!telemetry::Telemetry::enabled()) return;
      const auto slice_steps =
          static_cast<Real>(result.steps - entry_steps);
      auto& metrics = telemetry::Telemetry::instance().metrics();
      metrics.add("dmm.steps", slice_steps);
      // One full clause sweep (all dv/dxs/dxl derivatives) per step.
      metrics.add("dmm.rhs_evals", slice_steps);
      metrics.add("dmm.clause_rhs_evals",
                  slice_steps * static_cast<Real>(clauses));
      metrics.add("dmm.dt_clamped_min", static_cast<Real>(clamped_min));
      metrics.add("dmm.dt_clamped_max", static_cast<Real>(clamped_max));
      // Digital readouts: one per step on which some voltage changed sign.
      metrics.add("dmm.evaluations", static_cast<Real>(evaluations));
      metrics.set("dmm.best_unsatisfied",
                  static_cast<Real>(result.best_unsatisfied));
    }
  } telem_flush{result, steps_at_entry, dt_clamped_min, dt_clamped_max,
                evaluations, m};

  // The sign bits are the digital assignment: sign_bit[i] == (v[i] > 0).
  const auto evaluate_assignment = [&]() {
    ++evaluations;
    const Readout now = readout(sign_bit);
    result.best_unsatisfied = std::min(result.best_unsatisfied, now.unsatisfied);
    const Real w = opts_.maxsat_mode ? now.weight
                                     : static_cast<Real>(now.unsatisfied);
    if (best_weight < 0.0 || w < best_weight) {
      best_weight = w;
      for (std::size_t i = 0; i < n; ++i)
        result.assignment[i + 1] = sign_bit[i] != 0;
      result.steps_to_best = result.steps;
    }
    return now.unsatisfied;
  };

  const Real xl_ceiling = p.xl_max * static_cast<Real>(m);
  const core::detail::SliceClock clock(budget);
  bool finished = false;

  for (std::size_t step = result.steps; step < opts_.max_steps; ++step) {
    if (clock.exhausted(step - steps_at_entry)) break;
    kernel.rhs(result.sim_time, y, dydt);

    // Adaptive forward-Euler step from the largest voltage rate.
    Real max_rate = 0.0;
    for (const Real r : dv) max_rate = std::max(max_rate, std::abs(r));
    const Real dt_wanted = (max_rate > 0.0) ? p.dv_cap / max_rate : p.dt_max;
    const Real dt = std::clamp(dt_wanted, p.dt_min, p.dt_max);
    // The step-control analogue of acceptance/rejection in this scheme: a
    // clamp at dt_min means the dv_cap error target was overridden.
    dt_clamped_min += dt_wanted < p.dt_min;
    dt_clamped_max += dt_wanted > p.dt_max;
    const Real noise_scale =
        p.noise_stddev > 0.0 ? p.noise_stddev * std::sqrt(dt) : 0.0;

    std::size_t flips = 0;
    for (std::size_t i = 0; i < n; ++i) {
      Real nv = v[i] + dt * dv[i];
      if (noise_scale > 0.0) nv += noise_scale * rng.normal();
      v[i] = std::clamp(nv, -1.0, 1.0);
      result.max_abs_voltage = std::max(result.max_abs_voltage, std::abs(v[i]));
      const unsigned char s = v[i] > 0.0 ? 1 : 0;
      if (s != sign_bit[i]) {
        sign_bit[i] = s;
        ++flips;
      }
    }
    for (std::size_t cm = 0; cm < m; ++cm) {
      xs[cm] = std::clamp(xs[cm] + dt * dxs[cm], 0.0, 1.0);
      xl[cm] = std::clamp(xl[cm] + dt * dxl[cm], 1.0, xl_ceiling);
    }

    result.sim_time += dt;
    ++result.steps;
    if (opts_.track_avalanches && flips > 0)
      result.avalanche_sizes.push_back(flips);
    if (opts_.energy_stride > 0 && step % opts_.energy_stride == 0)
      result.energy_trace.push_back(kernel.clause_energy);
    if (step % kEnergyTelemStride == 0) {
      if (telem)
        telemetry::Telemetry::instance().metrics().record(
            "dmm.clause_energy", kernel.clause_energy);
      // Same decimation keeps the timeline's energy track bounded: one
      // sample per 64 integration steps, not one per step.
      TELEM_TRACE_COUNTER("dmm.clause_energy", kernel.clause_energy);
    }

    // The digital readout only changes when some voltage crossed zero.
    if (flips > 0) {
      const std::size_t unsat = evaluate_assignment();
      if (unsat == 0 && !opts_.maxsat_mode) {
        result.satisfied = true;
        result.best_unsatisfied = 0;
        result.best_unsatisfied_weight = 0.0;
        finished = true;
        break;
      }
    }
  }

  if (!finished && result.steps >= opts_.max_steps) {
    result.hit_limit = true;
    result.satisfied = result.best_unsatisfied == 0;
    result.best_unsatisfied_weight =
        opts_.maxsat_mode ? std::max(best_weight, 0.0)
                          : static_cast<Real>(result.best_unsatisfied);
    finished = true;
  }

  // Park the trajectory: every mutable of the loop above goes back into the
  // checkpoint, so the next advance — anywhere — continues seamlessly.
  ckpt.step = result.steps;
  ckpt.t = result.sim_time;
  std::copy(y.begin(), y.end(), ckpt.state.begin());
  std::copy(sign_bit.begin(), sign_bit.end(), ckpt.flags.begin() + kFlagSign);
  for (std::size_t i = 0; i <= n; ++i)
    ckpt.flags[kFlagSign + n + i] = result.assignment[i] ? 1 : 0;
  ckpt.counters.resize(kCtrTail);
  ckpt.counters[kCtrStepsToBest] = result.steps_to_best;
  ckpt.counters[kCtrBestUnsat] = result.best_unsatisfied;
  for (const std::size_t flips : result.avalanche_sizes)
    ckpt.counters.push_back(flips);
  ckpt.aux.resize(kAuxTail);
  ckpt.aux[kAuxBestWeight] = best_weight;
  ckpt.aux[kAuxMaxAbsV] = result.max_abs_voltage;
  ckpt.aux[kAuxFinalWeight] = result.best_unsatisfied_weight;
  ckpt.aux.insert(ckpt.aux.end(), result.energy_trace.begin(),
                  result.energy_trace.end());
  ckpt.rng = rng.save();
  if (finished) {
    ckpt.flags[kFlagFinished] = 1;
    ckpt.flags[kFlagSatisfied] = result.satisfied ? 1 : 0;
    ckpt.flags[kFlagHitLimit] = result.hit_limit ? 1 : 0;
    out.done = true;
    out.result = std::move(result);
  }
  return out;
}

bool DmmSolver::solve_ensemble_slice(std::size_t restarts,
                                     std::uint64_t base_seed,
                                     const DmmEnsembleOptions& opts,
                                     const core::SliceBudget& budget,
                                     core::EnsembleCheckpoint& ckpt,
                                     DmmEnsembleResult* result) const {
  TELEM_SPAN("dmm.solve_ensemble");
  TELEM_TRACE_SCOPE("dmm.solve_ensemble");
  if (restarts == 0)
    throw std::invalid_argument("solve_ensemble: need >= 1 restart");

  core::EnsembleOptions ropts;
  ropts.threads = opts.threads;
  ropts.telemetry_label = "dmm.ensemble";
  const bool stop_early = opts.stop_on_first_solution && !opts_.maxsat_mode;

  const core::SlicedEnsembleResult run = core::run_ensemble_sliced(
      restarts, ropts, budget,
      ckpt, [&](std::size_t i, core::Checkpoint& traj,
                const core::SliceBudget& slice, core::Workspace& ws) {
        if (traj.tag.empty()) {
          // Fresh restart: all randomness of restart i comes from its
          // counter-based stream — bit-identical at any thread count, any
          // slicing, and across process restarts.
          core::Rng rng = core::Rng::stream(base_seed, i);
          std::vector<Real> v0(num_variables_);
          for (Real& v : v0) v = rng.uniform(-1.0, 1.0);
          traj = begin(std::move(v0), rng);
        }
        const DmmSliceOutcome out = advance(traj, slice, ws);
        core::SliceStatus status;
        status.done = out.done;
        status.request_stop = out.done && stop_early && out.result.satisfied;
        return status;
      });

  if (!run.done) return false;
  if (result == nullptr) return true;

  DmmEnsembleResult er;
  er.results.resize(restarts);
  er.ran.assign(restarts, 0);
  // Completed restarts are recovered from their checkpoints — including ones
  // finished by an earlier invocation, possibly in a different process.
  for (std::size_t i = 0; i < restarts; ++i) {
    if (!ckpt.finished[i]) continue;
    er.results[i] = result_from_checkpoint(ckpt.trajectories[i]);
    er.ran[i] = 1;
  }

  // Winner: scan ascending, so the choice only depends on slots that are
  // guaranteed to have run (everything up to the first satisfying index).
  bool have_best = false;
  Real best_key = 0.0;
  for (std::size_t i = 0; i < restarts; ++i) {
    if (!er.ran[i]) continue;
    const DmmResult& r = er.results[i];
    if (r.satisfied) {
      er.best = r;
      er.best_index = i;
      er.any_satisfied = true;
      break;
    }
    const Real key = opts_.maxsat_mode
                         ? r.best_unsatisfied_weight
                         : static_cast<Real>(r.best_unsatisfied);
    if (!have_best || key < best_key) {
      have_best = true;
      best_key = key;
      er.best = r;
      er.best_index = i;
    }
  }

  er.trajectories = run.stats.trajectories;
  er.threads_used = run.stats.threads_used;
  er.wall_seconds = run.stats.wall_seconds;
  er.trajectories_per_second = run.stats.trajectories_per_second;
  *result = std::move(er);
  return true;
}

DmmEnsembleResult DmmSolver::solve_ensemble(
    std::size_t restarts, std::uint64_t base_seed,
    const DmmEnsembleOptions& opts) const {
  core::EnsembleCheckpoint ckpt;
  DmmEnsembleResult er;
  solve_ensemble_slice(restarts, base_seed, opts, core::SliceBudget{}, ckpt,
                       &er);
  return er;
}

}  // namespace rebooting::memcomputing
