// Runtime layer of the Fig. 2 stack: takes a (logical) circuit, drives it
// through the compiler onto the simulated device, executes shots with an
// optional noise model, and reports per-layer statistics upward — exactly
// the "runtime support ... interacting with the controlling classical
// processor" role the paper assigns this layer.
#pragma once

#include <map>
#include <optional>

#include "core/accelerator.h"
#include "core/random.h"
#include "quantum/compiler.h"

namespace rebooting::quantum {

/// Stochastic Pauli error channel applied gate-by-gate during execution
/// (Monte-Carlo trajectories), plus classical measurement bit flips.
struct NoiseModel {
  core::Real depolarizing_1q = 0.0;  ///< per single-qubit gate
  core::Real depolarizing_2q = 0.0;  ///< per two-qubit gate
  core::Real readout_flip = 0.0;     ///< per measured bit

  /// True when gates draw Pauli errors, so every shot needs its own
  /// trajectory.
  bool has_gate_noise() const {
    return depolarizing_1q > 0.0 || depolarizing_2q > 0.0;
  }
};

struct ExecutionResult {
  /// Histogram of measured basis states over all shots (keyed by the
  /// *logical* bit pattern; the runtime undoes the routing permutation).
  std::map<std::uint64_t, std::size_t> counts;
  std::size_t shots = 0;
  CompileReport compile_report;
  core::Real device_seconds = 0.0;  ///< scheduled cycles x cycle time x shots

  /// Most frequent outcome (0 if no shots).
  std::uint64_t mode() const;
  /// Fraction of shots equal to `state`.
  core::Real frequency(std::uint64_t state) const;
};

struct QuantumDeviceConfig {
  Topology topology = Topology::all_to_all(8);
  NoiseModel noise{};
  core::Real cycle_seconds = 20e-9;  ///< one device cycle (transmon-scale)
  bool enable_optimizer = true;
};

/// The quantum accelerator of Fig. 1: owns the device config and offers the
/// typed run() API; registered with a HostSystem via the Accelerator base.
class QuantumAccelerator final : public core::Accelerator {
 public:
  explicit QuantumAccelerator(QuantumDeviceConfig config);

  std::string name() const override { return "Quantum accelerator (state-vector device)"; }
  core::AcceleratorKind kind() const override {
    return core::AcceleratorKind::kQuantum;
  }
  std::vector<std::string> stack_layers() const override {
    return {"Application (algorithm host code)",
            "Quantum algorithm (circuit construction)",
            "Compiler (decompose / route / optimize / schedule)",
            "QISA (instruction set)",
            "Microarchitecture (cycle-accurate schedule)",
            "Device (state-vector simulator)"};
  }

  const QuantumDeviceConfig& config() const { return config_; }

  /// Factory for sched::Scheduler worker pools: each invocation constructs an
  /// independent device replica with this config.
  static core::AcceleratorFactory factory(QuantumDeviceConfig config);

  /// Compiles and executes `shots` measurement shots of the circuit. When
  /// the circuit has no explicit measure operations every qubit is measured
  /// at the end. Gate noise or a mid-circuit measurement makes every shot
  /// its own Monte-Carlo trajectory. Otherwise the circuit is simulated
  /// once and each shot samples that state, then draws its readout flips;
  /// the counts and the Rng position are the same as shot-by-shot
  /// execution would give.
  ExecutionResult run(const Circuit& circuit, std::size_t shots,
                      core::Rng& rng) const;

 private:
  QuantumDeviceConfig config_;
};

}  // namespace rebooting::quantum
