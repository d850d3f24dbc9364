#include "memcomputing/rbm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "memcomputing/dmm.h"

namespace rebooting::memcomputing {

namespace {

Real sigmoid(Real x) { return 1.0 / (1.0 + std::exp(-x)); }

Real softplus(Real x) {
  // Stable: softplus(x) = max(x, 0) + log1p(exp(-|x|)).
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

}  // namespace

BinaryRbm::BinaryRbm(std::size_t visible, std::size_t hidden, core::Rng& rng,
                     Real init_stddev)
    : nv_(visible), nh_(hidden), w_(visible * hidden), b_(visible, 0.0),
      c_(hidden, 0.0) {
  if (visible == 0 || hidden == 0)
    throw std::invalid_argument("BinaryRbm: zero layer size");
  for (Real& w : w_) w = rng.normal(0.0, init_stddev);
}

std::vector<Real> BinaryRbm::hidden_probability(const Pattern& v) const {
  std::vector<Real> p(nh_);
  for (std::size_t j = 0; j < nh_; ++j) {
    Real act = c_[j];
    for (std::size_t i = 0; i < nv_; ++i)
      if (v[i]) act += w_[j * nv_ + i];
    p[j] = sigmoid(act);
  }
  return p;
}

std::vector<Real> BinaryRbm::visible_probability(const Pattern& h) const {
  std::vector<Real> p(nv_);
  for (std::size_t i = 0; i < nv_; ++i) {
    Real act = b_[i];
    for (std::size_t j = 0; j < nh_; ++j)
      if (h[j]) act += w_[j * nv_ + i];
    p[i] = sigmoid(act);
  }
  return p;
}

Pattern BinaryRbm::sample_hidden(const Pattern& v, core::Rng& rng) const {
  const auto p = hidden_probability(v);
  Pattern h(nh_);
  for (std::size_t j = 0; j < nh_; ++j) h[j] = rng.bernoulli(p[j]) ? 1 : 0;
  return h;
}

Pattern BinaryRbm::sample_visible(const Pattern& h, core::Rng& rng) const {
  const auto p = visible_probability(h);
  Pattern v(nv_);
  for (std::size_t i = 0; i < nv_; ++i) v[i] = rng.bernoulli(p[i]) ? 1 : 0;
  return v;
}

Real BinaryRbm::joint_energy(const Pattern& v, const Pattern& h) const {
  Real e = 0.0;
  for (std::size_t i = 0; i < nv_; ++i)
    if (v[i]) e -= b_[i];
  for (std::size_t j = 0; j < nh_; ++j) {
    if (!h[j]) continue;
    e -= c_[j];
    for (std::size_t i = 0; i < nv_; ++i)
      if (v[i]) e -= w_[j * nv_ + i];
  }
  return e;
}

Real BinaryRbm::free_energy(const Pattern& v) const {
  Real f = 0.0;
  for (std::size_t i = 0; i < nv_; ++i)
    if (v[i]) f -= b_[i];
  for (std::size_t j = 0; j < nh_; ++j) {
    Real act = c_[j];
    for (std::size_t i = 0; i < nv_; ++i)
      if (v[i]) act += w_[j * nv_ + i];
    f -= softplus(act);
  }
  return f;
}

void BinaryRbm::cd_step(const Dataset& batch, std::size_t k,
                        Real learning_rate, core::Rng& rng) {
  if (batch.empty()) return;
  std::vector<Real> dw(w_.size(), 0.0), db(nv_, 0.0), dc(nh_, 0.0);
  for (const Pattern& v0 : batch) {
    const auto h0p = hidden_probability(v0);
    // Gibbs chain of length k from the data.
    Pattern v = v0;
    Pattern h = sample_hidden(v, rng);
    for (std::size_t step = 0; step < k; ++step) {
      v = sample_visible(h, rng);
      h = sample_hidden(v, rng);
    }
    const auto hkp = hidden_probability(v);
    for (std::size_t j = 0; j < nh_; ++j)
      for (std::size_t i = 0; i < nv_; ++i)
        dw[j * nv_ + i] += h0p[j] * static_cast<Real>(v0[i]) -
                           hkp[j] * static_cast<Real>(v[i]);
    for (std::size_t i = 0; i < nv_; ++i)
      db[i] += static_cast<Real>(v0[i]) - static_cast<Real>(v[i]);
    for (std::size_t j = 0; j < nh_; ++j) dc[j] += h0p[j] - hkp[j];
  }
  const Real scale = learning_rate / static_cast<Real>(batch.size());
  for (std::size_t x = 0; x < w_.size(); ++x) w_[x] += scale * dw[x];
  for (std::size_t i = 0; i < nv_; ++i) b_[i] += scale * db[i];
  for (std::size_t j = 0; j < nh_; ++j) c_[j] += scale * dc[j];
}

void BinaryRbm::negative_sample_step(const Dataset& batch, const Pattern& neg_v,
                                     const Pattern& neg_h,
                                     Real learning_rate) {
  if (batch.empty()) return;
  std::vector<Real> dw(w_.size(), 0.0), db(nv_, 0.0), dc(nh_, 0.0);
  for (const Pattern& v0 : batch) {
    const auto h0p = hidden_probability(v0);
    for (std::size_t j = 0; j < nh_; ++j)
      for (std::size_t i = 0; i < nv_; ++i)
        dw[j * nv_ + i] += h0p[j] * static_cast<Real>(v0[i]);
    for (std::size_t i = 0; i < nv_; ++i) db[i] += static_cast<Real>(v0[i]);
    for (std::size_t j = 0; j < nh_; ++j) dc[j] += h0p[j];
  }
  const auto n = static_cast<Real>(batch.size());
  // The single negative sample stands for the model expectation.
  for (std::size_t j = 0; j < nh_; ++j)
    for (std::size_t i = 0; i < nv_; ++i)
      dw[j * nv_ + i] -= n * static_cast<Real>(neg_h[j]) *
                         static_cast<Real>(neg_v[i]);
  for (std::size_t i = 0; i < nv_; ++i) db[i] -= n * static_cast<Real>(neg_v[i]);
  for (std::size_t j = 0; j < nh_; ++j) dc[j] -= n * static_cast<Real>(neg_h[j]);

  const Real scale = learning_rate / n;
  for (std::size_t x = 0; x < w_.size(); ++x) w_[x] += scale * dw[x];
  for (std::size_t i = 0; i < nv_; ++i) b_[i] += scale * db[i];
  for (std::size_t j = 0; j < nh_; ++j) c_[j] += scale * dc[j];
}

std::vector<std::pair<Pattern, Pattern>> BinaryRbm::gibbs_samples(
    core::Rng& rng, std::size_t n_chains, std::size_t sweeps) const {
  std::vector<std::pair<Pattern, Pattern>> out;
  out.reserve(n_chains);
  for (std::size_t chain = 0; chain < n_chains; ++chain) {
    Pattern v(nv_);
    for (auto& bit : v) bit = rng.bernoulli(0.5) ? 1 : 0;
    Pattern h = sample_hidden(v, rng);
    for (std::size_t s = 0; s < sweeps; ++s) {
      v = sample_visible(h, rng);
      h = sample_hidden(v, rng);
    }
    out.emplace_back(std::move(v), std::move(h));
  }
  return out;
}

void BinaryRbm::negative_expectation_step(
    const Dataset& batch,
    const std::vector<std::pair<Pattern, Pattern>>& samples,
    Real learning_rate) {
  if (batch.empty() || samples.empty()) return;
  std::vector<Real> dw(w_.size(), 0.0), db(nv_, 0.0), dc(nh_, 0.0);
  for (const Pattern& v0 : batch) {
    const auto h0p = hidden_probability(v0);
    for (std::size_t j = 0; j < nh_; ++j)
      for (std::size_t i = 0; i < nv_; ++i)
        dw[j * nv_ + i] += h0p[j] * static_cast<Real>(v0[i]);
    for (std::size_t i = 0; i < nv_; ++i) db[i] += static_cast<Real>(v0[i]);
    for (std::size_t j = 0; j < nh_; ++j) dc[j] += h0p[j];
  }
  const Real pos_scale = 1.0 / static_cast<Real>(batch.size());
  for (auto& x : dw) x *= pos_scale;
  for (auto& x : db) x *= pos_scale;
  for (auto& x : dc) x *= pos_scale;

  const Real neg_scale = 1.0 / static_cast<Real>(samples.size());
  for (const auto& [v, h] : samples) {
    for (std::size_t j = 0; j < nh_; ++j) {
      if (!h[j]) continue;
      dc[j] -= neg_scale;
      for (std::size_t i = 0; i < nv_; ++i)
        if (v[i]) dw[j * nv_ + i] -= neg_scale;
    }
    for (std::size_t i = 0; i < nv_; ++i)
      if (v[i]) db[i] -= neg_scale;
  }

  for (std::size_t x = 0; x < w_.size(); ++x) w_[x] += learning_rate * dw[x];
  for (std::size_t i = 0; i < nv_; ++i) b_[i] += learning_rate * db[i];
  for (std::size_t j = 0; j < nh_; ++j) c_[j] += learning_rate * dc[j];
}

Real BinaryRbm::exact_nll(const Dataset& data) const {
  if (nv_ > 20)
    throw std::invalid_argument("exact_nll: visible layer too large");
  if (data.empty()) return 0.0;
  // log Z over the visible space via the free energy.
  const std::size_t states = 1ull << nv_;
  Real max_neg_f = -1e300;
  std::vector<Real> neg_f(states);
  Pattern v(nv_);
  for (std::size_t s = 0; s < states; ++s) {
    for (std::size_t i = 0; i < nv_; ++i) v[i] = (s >> i) & 1u;
    neg_f[s] = -free_energy(v);
    max_neg_f = std::max(max_neg_f, neg_f[s]);
  }
  Real z = 0.0;
  for (const Real nf : neg_f) z += std::exp(nf - max_neg_f);
  const Real log_z = max_neg_f + std::log(z);

  Real nll = 0.0;
  for (const Pattern& p : data) nll += free_energy(p) + log_z;
  return nll / static_cast<Real>(data.size());
}

Real BinaryRbm::reconstruction_error(const Dataset& data, core::Rng& rng,
                                     std::size_t repeats) const {
  if (data.empty()) return 0.0;
  std::size_t wrong = 0;
  std::size_t total = 0;
  for (std::size_t r = 0; r < std::max<std::size_t>(1, repeats); ++r) {
    for (const Pattern& v : data) {
      const Pattern h = sample_hidden(v, rng);
      const auto vp = visible_probability(h);
      for (std::size_t i = 0; i < nv_; ++i) {
        const bool bit = vp[i] > 0.5;
        if (bit != (v[i] != 0)) ++wrong;
        ++total;
      }
    }
  }
  return static_cast<Real>(wrong) / static_cast<Real>(total);
}

Cnf BinaryRbm::joint_energy_cnf() const {
  // Variables: visible i -> i+1, hidden j -> nv+j+1.
  Cnf cnf(nv_ + nh_);
  const auto vis = [](std::size_t i) { return static_cast<Literal>(i + 1); };
  const auto hid = [this](std::size_t j) {
    return static_cast<Literal>(nv_ + j + 1);
  };
  const Real tiny = 1e-9;
  // Linear terms -b_i v_i: cost |b| on the losing polarity.
  for (std::size_t i = 0; i < nv_; ++i) {
    if (b_[i] > tiny) cnf.add_clause({vis(i)}, b_[i]);
    else if (b_[i] < -tiny) cnf.add_clause({-vis(i)}, -b_[i]);
  }
  for (std::size_t j = 0; j < nh_; ++j) {
    if (c_[j] > tiny) cnf.add_clause({hid(j)}, c_[j]);
    else if (c_[j] < -tiny) cnf.add_clause({-hid(j)}, -c_[j]);
  }
  // Quadratic terms -W h v. W > 0: cost W unless h=v=1, encoded as the pair
  // {(h), (!h | v)}; W < 0: cost |W| when h=v=1, encoded as (!h | !v).
  for (std::size_t j = 0; j < nh_; ++j) {
    for (std::size_t i = 0; i < nv_; ++i) {
      const Real w = w_[j * nv_ + i];
      if (w > tiny) {
        cnf.add_clause({hid(j)}, w);
        cnf.add_clause({-hid(j), vis(i)}, w);
      } else if (w < -tiny) {
        cnf.add_clause({-hid(j), -vis(i)}, -w);
      }
    }
  }
  return cnf;
}

BinaryRbm::Mode BinaryRbm::find_mode_exact() const {
  if (nv_ > 20)
    throw std::invalid_argument("find_mode_exact: visible layer too large");
  Mode best;
  best.energy = 1e300;
  const std::size_t states = 1ull << nv_;
  Pattern v(nv_);
  for (std::size_t s = 0; s < states; ++s) {
    for (std::size_t i = 0; i < nv_; ++i) v[i] = (s >> i) & 1u;
    // Given v, each hidden unit independently minimizes energy.
    Pattern h(nh_);
    Real e = 0.0;
    for (std::size_t i = 0; i < nv_; ++i)
      if (v[i]) e -= b_[i];
    for (std::size_t j = 0; j < nh_; ++j) {
      Real act = c_[j];
      for (std::size_t i = 0; i < nv_; ++i)
        if (v[i]) act += w_[j * nv_ + i];
      if (act > 0.0) {
        h[j] = 1;
        e -= act;
      }
    }
    if (e < best.energy) {
      best.energy = e;
      best.v = v;
      best.h = h;
    }
  }
  return best;
}

BinaryRbm::Mode BinaryRbm::find_mode_annealed(core::Rng& rng,
                                              std::size_t sweeps) const {
  // Annealed block-Gibbs: sample h|v and v|h with inverse temperature ramped
  // from 0.2 to 3, tracking the lowest-energy joint state encountered.
  Pattern v(nv_);
  for (auto& bit : v) bit = rng.bernoulli(0.5) ? 1 : 0;
  Pattern h = sample_hidden(v, rng);
  Mode best{v, h, joint_energy(v, h)};
  for (std::size_t s = 0; s < sweeps; ++s) {
    const Real beta =
        0.2 + (3.0 - 0.2) * static_cast<Real>(s) /
                  static_cast<Real>(std::max<std::size_t>(1, sweeps - 1));
    // Tempered conditional sampling.
    for (std::size_t j = 0; j < nh_; ++j) {
      Real act = c_[j];
      for (std::size_t i = 0; i < nv_; ++i)
        if (v[i]) act += w_[j * nv_ + i];
      h[j] = rng.bernoulli(sigmoid(beta * act)) ? 1 : 0;
    }
    for (std::size_t i = 0; i < nv_; ++i) {
      Real act = b_[i];
      for (std::size_t j = 0; j < nh_; ++j)
        if (h[j]) act += w_[j * nv_ + i];
      v[i] = rng.bernoulli(sigmoid(beta * act)) ? 1 : 0;
    }
    const Real e = joint_energy(v, h);
    if (e < best.energy) best = Mode{v, h, e};
  }
  return best;
}

BinaryRbm::Mode BinaryRbm::find_mode_dmm(core::Rng& rng,
                                         std::size_t max_steps) const {
  const Cnf cnf = joint_energy_cnf();
  Mode mode;
  if (cnf.num_clauses() == 0) {
    mode.v.assign(nv_, 0);
    mode.h.assign(nh_, 0);
    mode.energy = 0.0;
    return mode;
  }
  DmmOptions opts;
  opts.max_steps = max_steps;
  opts.maxsat_mode = true;
  const DmmSolver solver(cnf, opts);
  const DmmResult r = solver.solve(rng);
  mode.v.assign(nv_, 0);
  mode.h.assign(nh_, 0);
  for (std::size_t i = 0; i < nv_; ++i) mode.v[i] = r.assignment[i + 1] ? 1 : 0;
  for (std::size_t j = 0; j < nh_; ++j)
    mode.h[j] = r.assignment[nv_ + j + 1] ? 1 : 0;
  mode.energy = joint_energy(mode.v, mode.h);
  return mode;
}

Dataset bars_and_stripes(std::size_t side) {
  if (side == 0 || side > 5)
    throw std::invalid_argument("bars_and_stripes: side in [1,5]");
  Dataset data;
  const std::size_t nv = side * side;
  const std::size_t combos = 1ull << side;
  // All row patterns (bars) and all column patterns (stripes); the all-on
  // and all-off patterns appear in both sets, deduplicated at the end.
  for (std::size_t mask = 0; mask < combos; ++mask) {
    Pattern rows(nv, 0);
    Pattern cols(nv, 0);
    for (std::size_t y = 0; y < side; ++y)
      for (std::size_t x = 0; x < side; ++x) {
        rows[y * side + x] = (mask >> y) & 1u;
        cols[y * side + x] = (mask >> x) & 1u;
      }
    data.push_back(rows);
    data.push_back(cols);
  }
  // Lexicographic, as Pattern's operator< is; GCC 12 reports a false
  // -Wstringop-overread for the operator<=> that operator< goes through.
  std::sort(data.begin(), data.end(), [](const Pattern& a, const Pattern& b) {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  });
  data.erase(std::unique(data.begin(), data.end()), data.end());
  return data;
}

Dataset noisy_prototypes(core::Rng& rng, const Dataset& prototypes,
                         std::size_t samples_per_prototype, Real flip_prob) {
  Dataset out;
  out.reserve(prototypes.size() * samples_per_prototype);
  for (const Pattern& proto : prototypes) {
    for (std::size_t s = 0; s < samples_per_prototype; ++s) {
      Pattern p = proto;
      for (auto& bit : p)
        if (rng.bernoulli(flip_prob)) bit ^= 1u;
      out.push_back(std::move(p));
    }
  }
  return out;
}

RbmTrainResult train_rbm(BinaryRbm& rbm, const Dataset& data,
                         const RbmTrainOptions& opts, core::Rng& rng) {
  if (data.empty()) throw std::invalid_argument("train_rbm: empty dataset");
  RbmTrainResult result;

  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  const bool small_enough = rbm.visible() <= 16;
  auto record = [&](std::size_t epoch) {
    RbmHistoryPoint pt;
    pt.epoch = epoch;
    pt.nll = small_enough ? rbm.exact_nll(data) : 0.0;
    pt.reconstruction_error = rbm.reconstruction_error(data, rng, 2);
    result.history.push_back(pt);
  };

  record(0);
  for (std::size_t epoch = 1; epoch <= opts.epochs; ++epoch) {
    rng.shuffle(order);
    const Real frac = static_cast<Real>(epoch) /
                      static_cast<Real>(std::max<std::size_t>(1, opts.epochs));
    const Real p_mode = opts.mode_p0 + (opts.mode_p1 - opts.mode_p0) * frac;

    for (std::size_t start = 0; start < data.size();
         start += opts.batch_size) {
      Dataset batch;
      for (std::size_t i = start;
           i < std::min(start + opts.batch_size, data.size()); ++i)
        batch.push_back(data[order[i]]);

      switch (opts.trainer) {
        case RbmTrainer::kCdBaseline:
          rbm.cd_step(batch, opts.cd_k, opts.learning_rate, rng);
          break;
        case RbmTrainer::kAnnealerSampled: {
          const auto samples =
              rbm.gibbs_samples(rng, opts.anneal_chains, opts.anneal_sweeps);
          rbm.negative_expectation_step(batch, samples, opts.learning_rate);
          break;
        }
        case RbmTrainer::kModeAssistedDmm:
          if (rng.bernoulli(p_mode)) {
            const auto mode = rbm.find_mode_dmm(rng, opts.dmm_max_steps);
            rbm.negative_sample_step(batch, mode.v, mode.h,
                                     opts.learning_rate * opts.mode_lr_scale);
          } else {
            rbm.cd_step(batch, opts.cd_k, opts.learning_rate, rng);
          }
          break;
      }
    }
    if (epoch % std::max<std::size_t>(1, opts.eval_stride) == 0 ||
        epoch == opts.epochs)
      record(epoch);
  }
  result.final_nll = result.history.back().nll;
  result.final_reconstruction_error =
      result.history.back().reconstruction_error;
  return result;
}

}  // namespace rebooting::memcomputing
