#include "memcomputing/dmm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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

// One vector type per lane count, as GCC and Clang vector extensions: two
// doubles are SSE2 on x86-64 and NEON on AArch64 with no flag, four are AVX2
// and appear only inside the target("avx2") build below. GCC ignores
// vector_size on an alias that depends on a template parameter, hence one
// specialization each. Each lane is plain IEEE double arithmetic, so it
// computes bit for bit what the same scalar expression does.
template <int L>
struct VecOf;
template <>
struct VecOf<2> {
  using type = Real __attribute__((vector_size(2 * sizeof(Real))));
};
template <>
struct VecOf<4> {
  using type = Real __attribute__((vector_size(4 * sizeof(Real))));
};

template <typename Vec>
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(Real);

// The helpers below take and give vectors by reference: a 4-lane vector
// passed by value through a function built without AVX would change the
// calling convention (GCC's -Wpsabi), and step4 inlines them all anyway.

/// Sets lane i of `x` to at(i).
template <typename Vec, typename At>
void fill_lanes(Vec& x, At&& at) {
  for (std::size_t i = 0; i < kLanes<Vec>; ++i) x[i] = at(i);
}

/// Clears each lane's sign bit: lane-wise std::abs.
template <typename Vec>
void abs_in_place(Vec& x) {
  using Bits = decltype(x < x);
  x = (Vec)((Bits)x & std::numeric_limits<std::int64_t>::max());
}

// Items [0, count) in blocks of L: body(std::true_type, c) for each whole
// block c .. c + L - 1, then body(std::false_type, c) for a final partial
// block, whose lanes past the end repeat the last item.
template <int L, typename Body>
void for_blocks(std::size_t count, Body&& body) {
  std::size_t c = 0;
  for (; c + L <= count; c += L) body(std::true_type{}, c);
  if (c < count) body(std::false_type{}, c);
}

/// Loads items c, c + 1, ... of `s` into the lanes of `x`: one contiguous
/// load for a whole block.
template <typename Vec, bool kWhole>
void load(Vec& x, std::bool_constant<kWhole>, std::span<const Real> s,
          std::size_t c) {
  if constexpr (kWhole)
    std::memcpy(&x, s.data() + c, sizeof x);
  else
    fill_lanes(x,
               [&](std::size_t i) { return s[std::min(c + i, s.size() - 1)]; });
}

/// Stores the lanes of `x` that fall inside `s` at c, c + 1, ...
template <typename Vec, bool kWhole>
void store(std::bool_constant<kWhole>, std::span<Real> s, std::size_t c,
           const Vec& x) {
  if constexpr (kWhole) {
    std::memcpy(s.data() + c, &x, sizeof x);
  } else {
    for (std::size_t i = 0; c + i < s.size(); ++i) s[c + i] = x[i];
  }
}

}  // namespace

// One forward-Euler step of Eqs. 1-2 over the packed state y = [v | xs | xl]
// (n voltages, then m fast memories, then m slow memories): the clause sweep
// fills dv, dxs and dxl and sums the clause unsatisfaction, the largest
// |dv| sets dt, and the voltages and memories take their clamped Euler
// update. step<L> is one source built at L clauses (or variables) per
// vector; step2 and step4 flatten it at 2 and 4 lanes, so no helper is left
// out of line to split a 4-lane vector in two. Every dv sum adds its terms
// in clause order, then literal order, every other sum runs in item order,
// and every term keeps the operation order of Eqs. 1-2 as written below, so
// the step is bit-identical at either lane count (DESIGN.md §16).
struct DmmSolver::Kernel {
  /// What a step reads and writes besides the formula.
  struct State {
    std::span<Real> v, xs, xl, dv, dxs, dxl;
    std::span<Real> noise;  ///< this step's noise term per variable
    std::span<unsigned char> sign_bit;  ///< sign_bit[i] == (v[i] > 0)
    core::Rng& rng;
    Real& max_abs_voltage;
  };
  struct Report {
    Real dt_wanted = 0.0;  ///< dv_cap / max |dv|, before the clamp
    Real dt = 0.0;
    Real clause_energy = 0.0;  ///< sum of C_m before the step
    std::size_t flips = 0;     ///< sign bits the step changed
  };
  using StepFn = Report (*)(const DmmSolver&, State&);

  static StepFn step_for(std::size_t lanes) {
#if defined(__x86_64__)
    if (lanes == 4) return &step4;
#else
    (void)lanes;
#endif
    return &step2;
  }

 private:
  [[gnu::flatten]] static Report step2(const DmmSolver& solver, State& st) {
    return step<2>(solver, st);
  }
#if defined(__x86_64__)
  [[gnu::target("avx2"), gnu::flatten]] static Report step4(
      const DmmSolver& solver, State& st) {
    return step<4>(solver, st);
  }
#endif

  template <int L>
  static Report step(const DmmSolver& solver, State& st) {
    using Vec = typename VecOf<L>::type;
    const DmmParams p = solver.opts_.params;  // a copy no store can alias
    const std::span<Real> v = st.v, dv = st.dv, xs = st.xs, xl = st.xl;
    const std::span<unsigned char> sign_bit = st.sign_bit;
    Report r;
    std::fill(dv.begin(), dv.end(), 0.0);
    r.clause_energy = solver.all_width3_ ? sweep3<L>(solver, st)
                                         : sweep_any(solver, st);

    // Adaptive forward-Euler step from the largest voltage rate. Lanes past
    // the end repeat an item, which a maximum ignores. Each maximum is
    // std::max's `a < b ? b : a`.
    Vec rate = {};
    for_blocks<L>(v.size(), [&](auto whole, std::size_t i) {
      Vec rate_i;
      load(rate_i, whole, dv, i);
      abs_in_place(rate_i);
      rate = rate < rate_i ? rate_i : rate;
    });
    Real max_rate = 0.0;
    for (std::size_t k = 0; k < L; ++k)
      max_rate = std::max(max_rate, rate[k]);
    r.dt_wanted = (max_rate > 0.0) ? p.dv_cap / max_rate : p.dt_max;
    r.dt = std::clamp(r.dt_wanted, p.dt_min, p.dt_max);

    // The noise is drawn one variable at a time, in order, before the vector
    // pass adds it: the Rng advances as a scalar loop would advance it.
    const Real noise_scale =
        p.noise_stddev > 0.0 ? p.noise_stddev * std::sqrt(r.dt) : 0.0;
    const bool noisy = noise_scale > 0.0;
    if (noisy)
      for (Real& z : st.noise) z = noise_scale * st.rng.normal();

    // Clamps are std::clamp's `x < lo ? lo : (hi < x ? hi : x)`.
    Vec max_abs;
    fill_lanes(max_abs, [&](std::size_t) { return st.max_abs_voltage; });
    for_blocks<L>(v.size(), [&](auto whole, std::size_t i) {
      Vec vi, dvi;
      load(vi, whole, v, i);
      load(dvi, whole, dv, i);
      Vec nv = vi + r.dt * dvi;
      if (noisy) {
        Vec zi;
        load(zi, whole, st.noise, i);
        nv += zi;
      }
      nv = nv < -1.0 ? -1.0 : (1.0 < nv ? 1.0 : nv);
      store(whole, v, i, nv);
      const std::size_t kept = whole ? L : v.size() - i;
      for (std::size_t k = 0; k < kept; ++k) {
        const unsigned char bit = nv[k] > 0.0 ? 1 : 0;
        r.flips += bit != sign_bit[i + k];
        sign_bit[i + k] = bit;
      }
      abs_in_place(nv);
      max_abs = max_abs < nv ? nv : max_abs;
    });
    for (std::size_t k = 0; k < L; ++k)
      st.max_abs_voltage = std::max(st.max_abs_voltage, max_abs[k]);

    const Real xl_ceiling = p.xl_max * static_cast<Real>(xs.size());
    for_blocks<L>(xs.size(), [&](auto whole, std::size_t c) {
      Vec xsc, xlc, dxsc, dxlc;
      load(xsc, whole, xs, c);
      load(xlc, whole, xl, c);
      load(dxsc, whole, st.dxs, c);
      load(dxlc, whole, st.dxl, c);
      xsc += r.dt * dxsc;
      xlc += r.dt * dxlc;
      store(whole, xs, c, xsc < 0.0 ? 0.0 : (1.0 < xsc ? 1.0 : xsc));
      store(whole, xl, c,
            xlc < 1.0 ? 1.0 : (xl_ceiling < xlc ? xl_ceiling : xlc));
    });
    return r;
  }

  // Any clause widths, one clause at a time. With s_i = 1 - q_i v_i,
  // min1/min2 are the smallest and second-smallest s (2.0 when absent) and
  // arg1 the first literal that attains min1: the gradient term of literal
  // i takes the minimum over the *other* literals (min2 for arg1, min1 for
  // the rest), and rigidity holds the critical literal arg1 alone. Returns
  // the summed clause unsatisfaction.
  static Real sweep_any(const DmmSolver& solver, const State& st) {
    const DmmParams p = solver.opts_.params;  // a copy no store can alias
    const std::uint32_t* first = solver.first_.data();
    const std::uint32_t* var = solver.var_.data();
    const Real* q = solver.q_.data();
    const Real* w = solver.weight_.data();
    const std::span<const Real> v = st.v, xs = st.xs, xl = st.xl;
    const std::span<Real> dv = st.dv, dxs = st.dxs, dxl = st.dxl;
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
    return energy;
  }

  // All-3-literal formulas, L clauses per vector. A vector pass with no
  // data-dependent branch computes the block's terms; a scalar pass then
  // adds them into dv in clause order, then literal order. For s0, s1, s2
  // the minimum over the other literals is ex_i = min(s_j, s_k, 2), and the
  // critical literal is 0 when min(s0, 2) <= min(s1, s2), else 1 when
  // s1 < min(s0, 2) and s1 <= s2, else 2: the values and the pick of
  // sweep_any, from compares instead of jumps. xs, xl, w, dxs and dxl move
  // as whole vectors; the literals' q and v are gathered lane by lane.
  template <int L>
  static Real sweep3(const DmmSolver& solver, const State& st) {
    using Vec = typename VecOf<L>::type;
    const DmmParams p = solver.opts_.params;  // a copy no store can alias
    const std::uint32_t* var = solver.var_.data();
    const Real* q = solver.q_.data();
    const Real* v = st.v.data();
    Real* dv = st.dv.data();
    const std::size_t m = st.xs.size();
    Real energy = 0.0;
    for_blocks<L>(m, [&](auto whole, std::size_t c) {
      // Lane i holds clause c + i; in a partial block, lanes past the last
      // clause repeat it and are not kept.
      Vec q0, q1, q2, v0, v1, v2;
      for (std::size_t i = 0; i < L; ++i) {
        const std::size_t a = 3 * (whole ? c + i : std::min(c + i, m - 1));
        q0[i] = q[a], q1[i] = q[a + 1], q2[i] = q[a + 2];
        v0[i] = v[var[a]], v1[i] = v[var[a + 1]], v2[i] = v[var[a + 2]];
      }
      const Vec s0 = 1.0 - q0 * v0, s1 = 1.0 - q1 * v1, s2 = 1.0 - q2 * v2;

      // Each minimum is `a < b ? a : b`.
      const Vec a0 = s0 < 2.0 ? s0 : 2.0;  // running minimum after literal 0
      const Vec m12 = s1 < s2 ? s1 : s2;
      const Vec ex0 = m12 < 2.0 ? m12 : 2.0, ex1 = a0 < s2 ? a0 : s2,
                ex2 = a0 < s1 ? a0 : s1;
      const Vec cm = 0.5 * (a0 < m12 ? a0 : m12);  // C_m = min1 / 2

      Vec xsv, xlv, wv;
      load(xsv, whole, st.xs, c);
      load(xlv, whole, st.xl, c);
      load(wv, whole, solver.weight_, c);
      const Vec gate_g = xlv * xsv;
      const Vec gate_r = (1.0 + p.zeta * xlv) * (1.0 - xsv);
      Vec r0 = {}, r1 = {}, r2 = {};
      if (p.rigidity) {
        r0 = a0 <= m12 ? 0.5 * (q0 - v0) : r0;
        r1 = (s1 < a0) & (s1 <= s2) ? 0.5 * (q1 - v1) : r1;
        r2 = s2 < ex2 ? 0.5 * (q2 - v2) : r2;
      }
      const Vec t0 = wv * (gate_g * (0.5 * q0 * ex0) + gate_r * r0);
      const Vec t1 = wv * (gate_g * (0.5 * q1 * ex1) + gate_r * r1);
      const Vec t2 = wv * (gate_g * (0.5 * q2 * ex2) + gate_r * r2);
      const Vec dxs = p.beta * (xsv + p.epsilon) * (cm - p.gamma);
      const Vec dxl = p.long_term_memory ? p.alpha * (cm - p.delta) : Vec{};
      store(whole, st.dxs, c, dxs);
      store(whole, st.dxl, c, dxl);

      const std::size_t kept = whole ? L : m - c;
      for (std::size_t i = 0; i < kept; ++i) {
        energy += cm[i];
        const std::size_t a = 3 * (c + i);
        dv[var[a]] += t0[i], dv[var[a + 1]] += t1[i], dv[var[a + 2]] += t2[i];
      }
    });
    return energy;
  }
};

std::size_t detail::dmm_lanes() {
#if defined(__x86_64__)
  static const std::size_t lanes = __builtin_cpu_supports("avx2") ? 4 : 2;
  return lanes;
#else
  return 2;
#endif
}

DmmSolver detail::dmm_with_lanes(const DmmSolver& solver, std::size_t lanes) {
  if (lanes != 2 && lanes != dmm_lanes())
    throw std::invalid_argument(
        "dmm_with_lanes: this CPU runs the 2-lane build" +
        std::string(dmm_lanes() == 4 ? " or the 4-lane build" : ""));
  DmmSolver copy = solver;
  copy.lanes_ = lanes;
  return copy;
}

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
  const std::span<Real> noise = ws.real(n);
  const std::span<unsigned char> sign_bit = ws.bytes(n);

  std::copy(ckpt.state.begin(), ckpt.state.end(), y.begin());
  std::copy(ckpt.flags.begin() + kFlagSign,
            ckpt.flags.begin() + kFlagSign + n, sign_bit.begin());

  core::Rng rng = core::Rng::restore(ckpt.rng);

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
  Kernel::State state{y.first(n),          y.subspan(n, m),
                      y.subspan(n + m, m), dydt.first(n),
                      dydt.subspan(n, m),  dydt.subspan(n + m, m),
                      noise,               sign_bit,
                      rng,                 result.max_abs_voltage};
  const Kernel::StepFn step_once = Kernel::step_for(lanes_);

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

  const core::detail::SliceClock clock(budget);
  bool finished = false;

  for (std::size_t step = result.steps; step < opts_.max_steps; ++step) {
    if (clock.exhausted(step - steps_at_entry)) break;
    const Kernel::Report taken = step_once(*this, state);
    // The step-control analogue of acceptance/rejection in this scheme: a
    // clamp at dt_min means the dv_cap error target was overridden.
    dt_clamped_min += taken.dt_wanted < p.dt_min;
    dt_clamped_max += taken.dt_wanted > p.dt_max;

    result.sim_time += taken.dt;
    ++result.steps;
    if (opts_.track_avalanches && taken.flips > 0)
      result.avalanche_sizes.push_back(taken.flips);
    if (opts_.energy_stride > 0 && step % opts_.energy_stride == 0)
      result.energy_trace.push_back(taken.clause_energy);
    if (step % kEnergyTelemStride == 0) {
      if (telem)
        telemetry::Telemetry::instance().metrics().record(
            "dmm.clause_energy", taken.clause_energy);
      // Same decimation keeps the timeline's energy track bounded: one
      // sample per 64 integration steps, not one per step.
      TELEM_TRACE_COUNTER("dmm.clause_energy", taken.clause_energy);
    }

    // The digital readout only changes when some voltage crossed zero.
    if (taken.flips > 0) {
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
