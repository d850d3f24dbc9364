#include "quantum/state.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace rebooting::quantum {

namespace {

/// Calls pair(i0, i1) for every amplitude pair a gate on `target_bit` mixes
/// when every bit of `control_mask` is set: i0 has the target bit clear,
/// i1 = i0 | target_bit. The free bits are counted directly and zero bits
/// are inserted at the fixed (target and control) positions, lowest first,
/// so no index is visited only to be skipped. Bits below the lowest fixed
/// position stay contiguous, so the inner loop is a run of adjacent pairs.
template <typename Pair>
void for_each_pair(std::size_t num_qubits, std::uint64_t target_bit,
                   std::uint64_t control_mask, Pair&& pair) {
  const std::uint64_t fixed = target_bit | control_mask;
  const std::uint64_t run = fixed & -fixed;
  const std::uint64_t blocks =
      (1ull << (num_qubits - std::popcount(fixed))) / run;
  for (std::uint64_t block = 0; block < blocks; ++block) {
    std::uint64_t base = block * run;
    for (std::uint64_t rest = fixed; rest != 0; rest &= rest - 1) {
      const std::uint64_t below = (rest & -rest) - 1;
      base = (base & below) | ((base & ~below) << 1);
    }
    base |= control_mask;
    // i0 has the target bit clear, so adding it sets it.
    for (std::uint64_t i0 = base; i0 < base + run; ++i0)
      pair(i0, i0 + target_bit);
  }
}

/// Applies `g` to the pairs for_each_pair enumerates. The matrix lives in
/// local doubles, so the compiler need not reload it after every store to
/// the amplitudes. Each complex product is written out in the order GCC's
/// inline std::complex multiply evaluates, re = ar*br - ai*bi and
/// im = ar*bi + ai*br, and summed as m00*a0 + m01*a1: every amplitude rounds
/// exactly as the std::complex expression does, without that expression's
/// NaN-recovery branch (amplitudes are finite). A matrix whose off-diagonal
/// entries are zero only scales each amplitude; the dropped 0*a terms could
/// change nothing but the sign of an exact zero.
void apply_pairs(std::vector<Complex>& amps, std::size_t num_qubits,
                 const Gate2x2& g, std::uint64_t target_bit,
                 std::uint64_t control_mask) {
  // [complex.numbers] guarantees the (re, im) array layout of std::complex.
  double* const a = reinterpret_cast<double*>(amps.data());
  const double r00 = g.m00.real(), i00 = g.m00.imag();
  const double r01 = g.m01.real(), i01 = g.m01.imag();
  const double r10 = g.m10.real(), i10 = g.m10.imag();
  const double r11 = g.m11.real(), i11 = g.m11.imag();
  if (g.m01 == Complex{} && g.m10 == Complex{}) {
    for_each_pair(num_qubits, target_bit, control_mask,
                  [=](std::uint64_t i0, std::uint64_t i1) {
                    double* const p0 = a + 2 * i0;
                    double* const p1 = a + 2 * i1;
                    const double x0 = p0[0], y0 = p0[1];
                    const double x1 = p1[0], y1 = p1[1];
                    p0[0] = r00 * x0 - i00 * y0;
                    p0[1] = r00 * y0 + i00 * x0;
                    p1[0] = r11 * x1 - i11 * y1;
                    p1[1] = r11 * y1 + i11 * x1;
                  });
    return;
  }
  for_each_pair(num_qubits, target_bit, control_mask,
                [=](std::uint64_t i0, std::uint64_t i1) {
                  double* const p0 = a + 2 * i0;
                  double* const p1 = a + 2 * i1;
                  const double x0 = p0[0], y0 = p0[1];
                  const double x1 = p1[0], y1 = p1[1];
                  p0[0] = (r00 * x0 - i00 * y0) + (r01 * x1 - i01 * y1);
                  p0[1] = (r00 * y0 + i00 * x0) + (r01 * y1 + i01 * x1);
                  p1[0] = (r10 * x0 - i10 * y0) + (r11 * x1 - i11 * y1);
                  p1[1] = (r10 * y0 + i10 * x0) + (r11 * y1 + i11 * x1);
                });
}

}  // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits == 0 || num_qubits > 26)
    throw std::invalid_argument("StateVector: qubit count out of range [1,26]");
  amps_.assign(1ull << num_qubits, Complex{0.0, 0.0});
  amps_[0] = Complex{1.0, 0.0};
}

void StateVector::apply_1q(const Gate2x2& g, std::size_t target) {
  if (target >= num_qubits_)
    throw std::invalid_argument("apply_1q: target out of range");
  apply_pairs(amps_, num_qubits_, g, 1ull << target, 0);
}

void StateVector::apply_controlled(const Gate2x2& g,
                                   std::span<const std::size_t> controls,
                                   std::size_t target) {
  if (target >= num_qubits_)
    throw std::invalid_argument("apply_controlled: target out of range");
  std::uint64_t cmask = 0;
  for (const std::size_t c : controls) {
    if (c >= num_qubits_ || c == target)
      throw std::invalid_argument("apply_controlled: bad control");
    cmask |= 1ull << c;
  }
  apply_pairs(amps_, num_qubits_, g, 1ull << target, cmask);
}

void StateVector::swap_qubits(std::size_t a, std::size_t b) {
  if (a >= num_qubits_ || b >= num_qubits_)
    throw std::invalid_argument("swap_qubits: out of range");
  if (a == b) return;
  const std::uint64_t ba = 1ull << a;
  const std::uint64_t bb = 1ull << b;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    const bool va = s & ba;
    const bool vb = s & bb;
    if (va && !vb) std::swap(amps_[s], amps_[(s ^ ba) | bb]);
  }
}

Real StateVector::probability_one(std::size_t qubit) const {
  if (qubit >= num_qubits_)
    throw std::invalid_argument("probability_one: out of range");
  const std::uint64_t bit = 1ull << qubit;
  Real p = 0.0;
  for (std::uint64_t s = 0; s < amps_.size(); ++s)
    if (s & bit) p += std::norm(amps_[s]);
  return p;
}

std::vector<Real> StateVector::probabilities() const {
  std::vector<Real> p(amps_.size());
  for (std::uint64_t s = 0; s < amps_.size(); ++s) p[s] = std::norm(amps_[s]);
  return p;
}

std::uint64_t StateVector::sample(core::Rng& rng) const {
  Real r = rng.uniform();
  std::uint64_t last = 0;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    const Real p = std::norm(amps_[s]);
    if (p == 0.0) continue;
    last = s;
    r -= p;
    if (r <= 0.0) return s;
  }
  // Rounding (or a sub-normalized state) left r above the total
  // probability: the last state that can occur takes the remainder.
  return last;
}

bool StateVector::measure_qubit(std::size_t qubit, core::Rng& rng) {
  const Real p1 = probability_one(qubit);
  const bool outcome = rng.uniform() < p1;
  const Real keep = outcome ? p1 : 1.0 - p1;
  const Real scale = keep > 0.0 ? 1.0 / std::sqrt(keep) : 0.0;
  const std::uint64_t bit = 1ull << qubit;
  for (std::uint64_t s = 0; s < amps_.size(); ++s) {
    if (((s & bit) != 0) == outcome)
      amps_[s] *= scale;
    else
      amps_[s] = Complex{0.0, 0.0};
  }
  return outcome;
}

Real StateVector::norm() const {
  Real n = 0.0;
  for (const Complex& a : amps_) n += std::norm(a);
  return std::sqrt(n);
}

Real StateVector::fidelity(const StateVector& other) const {
  if (other.dimension() != dimension())
    throw std::invalid_argument("fidelity: dimension mismatch");
  Complex overlap{0.0, 0.0};
  for (std::uint64_t s = 0; s < amps_.size(); ++s)
    overlap += std::conj(amps_[s]) * other.amps_[s];
  return std::norm(overlap);
}

}  // namespace rebooting::quantum
