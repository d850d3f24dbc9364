#include "quantum/runtime.h"

#include <algorithm>
#include <stdexcept>

#include "quantum/canonical.h"
#include "telemetry/telemetry.h"

namespace rebooting::quantum {

std::uint64_t ExecutionResult::mode() const {
  std::uint64_t best_state = 0;
  std::size_t best_count = 0;
  for (const auto& [state, count] : counts)
    if (count > best_count) {
      best_count = count;
      best_state = state;
    }
  return best_state;
}

core::Real ExecutionResult::frequency(std::uint64_t state) const {
  if (shots == 0) return 0.0;
  const auto it = counts.find(state);
  return it == counts.end()
             ? 0.0
             : static_cast<core::Real>(it->second) / static_cast<core::Real>(shots);
}

QuantumAccelerator::QuantumAccelerator(QuantumDeviceConfig config)
    : config_(std::move(config)) {}

core::AcceleratorFactory QuantumAccelerator::factory(
    QuantumDeviceConfig config) {
  return [config = std::move(config)]() -> std::shared_ptr<core::Accelerator> {
    return std::make_shared<QuantumAccelerator>(config);
  };
}

namespace {

/// Applies one uniformly random non-identity Pauli to `qubit`.
void random_pauli(StateVector& state, std::size_t qubit, core::Rng& rng) {
  const std::uint64_t which = rng.uniform_index(3);
  const GateKind kinds[] = {GateKind::kX, GateKind::kY, GateKind::kZ};
  state.apply_1q(gate_matrix(kinds[which]), qubit);
}

/// How every shot ends: one basis-state sample, then one readout-flip draw
/// per physical qubit not measured mid-circuit, in qubit index order.
std::uint64_t sample_with_readout(const StateVector& state,
                                  std::uint64_t measured_mask,
                                  core::Real readout_flip, core::Rng& rng) {
  std::uint64_t sampled = state.sample(rng);
  if (readout_flip > 0.0)
    for (std::size_t q = 0; q < state.num_qubits(); ++q)
      if (!(measured_mask & (1ull << q)) && rng.bernoulli(readout_flip))
        sampled ^= 1ull << q;
  return sampled;
}

/// Undoes the routing permutation: logical bit l lives at physical
/// final_map[l].
std::uint64_t to_logical(std::uint64_t physical_bits,
                         std::span<const std::size_t> final_map) {
  std::uint64_t logical_bits = 0;
  for (std::size_t l = 0; l < final_map.size(); ++l)
    if (physical_bits & (1ull << final_map[l])) logical_bits |= 1ull << l;
  return logical_bits;
}

/// One Monte-Carlo trajectory of the compiled circuit; returns the physical
/// bit pattern it reads out.
std::uint64_t run_trajectory(const Circuit& compiled, const NoiseModel& noise,
                             core::Rng& rng) {
  StateVector state(compiled.num_qubits());

  std::uint64_t measured_bits = 0;
  std::uint64_t measured_mask = 0;

  for (const Operation& op : compiled.operations()) {
    if (op.kind == GateKind::kMeasure) {
      const bool bit = state.measure_qubit(op.qubits[0], rng);
      const bool flipped =
          noise.readout_flip > 0.0 && rng.bernoulli(noise.readout_flip);
      if (bit != flipped) measured_bits |= 1ull << op.qubits[0];
      measured_mask |= 1ull << op.qubits[0];
      continue;
    }
    apply_operation(state, op);
    const core::Real p = op.qubits.size() > 1 ? noise.depolarizing_2q
                                              : noise.depolarizing_1q;
    if (p > 0.0)
      for (const std::size_t q : op.qubits)
        if (rng.bernoulli(p)) random_pauli(state, q, rng);
  }

  // Any physical qubit not explicitly measured is sampled at the end.
  const std::uint64_t sampled =
      sample_with_readout(state, measured_mask, noise.readout_flip, rng);
  return (sampled & ~measured_mask) | measured_bits;
}

}  // namespace

ExecutionResult QuantumAccelerator::run(const Circuit& circuit,
                                        std::size_t shots,
                                        core::Rng& rng) const {
  if (shots == 0) throw std::invalid_argument("run: shots must be > 0");
  TELEM_SPAN("quantum.run");
  TELEM_TRACE_SCOPE("quantum.run");
  TELEM_COUNT("quantum.shots", static_cast<core::Real>(shots));
  // Content-addressed compile: hash-equal circuits share one cached program
  // compiled from the canonical (first-use relabeled) form; `perm` maps our
  // labels into the canonical ones, so composing it with the program's
  // routing map recovers original-logical -> physical.
  std::vector<std::size_t> perm;
  const std::shared_ptr<const CompiledProgram> prog_ptr =
      compile_cached(circuit, config_.topology, config_.enable_optimizer,
                     &perm);
  const CompiledProgram& prog = *prog_ptr;
  std::vector<std::size_t> final_map(circuit.num_qubits());
  for (std::size_t l = 0; l < circuit.num_qubits(); ++l)
    final_map[l] = prog.final_map[perm[l]];

  ExecutionResult result;
  result.shots = shots;
  result.compile_report = prog.report;
  result.device_seconds = static_cast<core::Real>(prog.report.total_cycles) *
                          config_.cycle_seconds *
                          static_cast<core::Real>(shots);

  const std::vector<Operation>& ops = prog.circuit.operations();
  const auto measures = static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [](const Operation& op) {
        return op.kind == GateKind::kMeasure;
      }));
  // With no gate errors and no mid-circuit collapse every trajectory
  // evolves the same state, so one simulation serves all shots. Each shot
  // then draws exactly what a trajectory would after its gates (one sample,
  // then the readout flips), so counts and the Rng position are the same
  // as shot-by-shot execution.
  const bool shared = !config_.noise.has_gate_noise() && measures == 0;
  TELEM_COUNT("quantum.gates",
              static_cast<core::Real>((ops.size() - measures) *
                                      (shared ? 1 : shots)));

  TELEM_SPAN("quantum.execute");
  TELEM_TRACE_SCOPE("quantum.execute");
  if (shared) {
    StateVector state(prog.circuit.num_qubits());
    for (const Operation& op : ops) apply_operation(state, op);
    for (std::size_t s = 0; s < shots; ++s)
      ++result.counts[to_logical(
          sample_with_readout(state, 0, config_.noise.readout_flip, rng),
          final_map)];
    return result;
  }

  for (std::size_t s = 0; s < shots; ++s)
    ++result.counts[to_logical(run_trajectory(prog.circuit, config_.noise, rng),
                               final_map)];
  return result;
}

}  // namespace rebooting::quantum
