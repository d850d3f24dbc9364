// The accelerator abstraction of Fig. 1 and the layered stack of Fig. 2.
//
// The paper's Sec. II thesis is that post-von-Neumann devices slot into a
// host system the way GPUs/FPGAs/TPUs do: the host dispatches jobs to an
// accelerator, and each accelerator is a full stack (application → algorithm
// → compiler → runtime → ISA → microarchitecture → device). This header
// defines the job and accelerator types; each engine (quantum, oscillator,
// memcomputing) provides a concrete Accelerator and a factory for it. The
// host itself is sched::Scheduler (src/scheduler/), which owns one worker
// pool of accelerator replicas per kind.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"

namespace rebooting::core {

/// Classes of execution resource in the Fig. 1 system picture.
enum class AcceleratorKind {
  kClassicalCpu,
  kQuantum,
  kOscillator,
  kMemcomputing,
};

std::string to_string(AcceleratorKind kind);
/// Inverse of to_string(AcceleratorKind); nullopt for an unknown name. Shared
/// by fault-plan parsing and the rebootd wire protocol.
std::optional<AcceleratorKind> kind_from_string(const std::string& name);

/// How a dispatch layer disposed of a job — the typed counterpart of the
/// ok/summary pair, so callers (the rebootd front door above all) can map an
/// outcome to a typed response instead of string-matching summaries.
/// kExecuted covers both success and a payload that ran and failed; every
/// other value means the payload never ran.
enum class JobDisposition : std::uint8_t {
  kExecuted,        ///< ran to a verdict (ok or failed after its attempts)
  kRejected,        ///< refused by kReject backpressure at submission
  kShed,            ///< evicted from the queue by kShedOldest backpressure
  kFlushed,         ///< still queued when the scheduler shut down
  kDeadlineMissed,  ///< deadline expired while queued or between retries
  kCancelled,       ///< CancelToken fired before (or between) attempts
};

std::string to_string(JobDisposition disposition);

/// Free-form numeric metrics reported by a job (instruction counts, per-layer
/// latencies, energies, solution quality, ...). Keys are dotted paths such as
/// "compile.gates" or "power.total_mw".
using Metrics = std::map<std::string, Real>;

struct JobResult {
  bool ok = false;
  std::string summary;  ///< one-line human-readable outcome
  Metrics metrics;
  Real wall_seconds = 0.0;  ///< scheduler-measured run time over attempts
  // --- resilience bookkeeping (filled by the sched::Scheduler execution
  // layer) -------------------------------------------------------------------
  JobDisposition disposition = JobDisposition::kExecuted;
  std::size_t attempts = 0;  ///< execution attempts consumed (0 = never ran)
  bool degraded = false;  ///< ok, but only via retries or failover
  /// One line per fault the job survived (or died of): injected faults,
  /// payload failures, breaker refusals, failover hops. Empty on a clean
  /// first-attempt success.
  std::vector<std::string> fault_log;
};

/// A unit of offloadable work. The payload closure runs on (and typically
/// captures) a specific accelerator's typed API; the scheduler only sees the
/// uniform JobResult.
struct Job {
  std::string name;
  AcceleratorKind kind = AcceleratorKind::kClassicalCpu;
  std::function<JobResult()> payload;
};

/// One execution resource in the heterogeneous system. Concrete accelerators
/// (the quantum stack, the oscillator array, the DMM engine) subclass this and
/// additionally expose their own typed APIs; the base class is what the
/// scheduler sees.
class Accelerator {
 public:
  virtual ~Accelerator() = default;

  virtual std::string name() const = 0;
  virtual AcceleratorKind kind() const = 0;

  /// The Fig. 2 stack layers of this accelerator, top (application interface)
  /// to bottom (device), for reporting.
  virtual std::vector<std::string> stack_layers() const = 0;

  /// Number of jobs this accelerator has completed under the scheduler.
  std::size_t jobs_completed() const {
    return jobs_completed_.load(std::memory_order_relaxed);
  }
  /// Total busy time accumulated across completed jobs [s].
  Real busy_seconds() const {
    return busy_seconds_.load(std::memory_order_relaxed);
  }

  /// Folds one completed job into the utilization counters. Called by the
  /// sched::Scheduler workers; safe to call from multiple threads
  /// concurrently.
  void record_completion(Real busy_seconds) {
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    busy_seconds_.fetch_add(busy_seconds, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> jobs_completed_{0};
  std::atomic<Real> busy_seconds_{0.0};
};

/// Constructs a fresh accelerator instance. The sched::Scheduler worker pools
/// use this to replicate an accelerator N times per kind, with each replica
/// owned by exactly one worker thread. Each engine exposes a
/// `static factory(...)` returning one of these bound to its config.
using AcceleratorFactory = std::function<std::shared_ptr<Accelerator>()>;

/// The host CPU itself as a schedulable resource, so classical jobs (baseline
/// solvers, pre/post-processing) flow through the same scheduler as the
/// post-von-Neumann accelerators.
class CpuAccelerator final : public Accelerator {
 public:
  std::string name() const override { return "Classical CPU (host)"; }
  AcceleratorKind kind() const override {
    return AcceleratorKind::kClassicalCpu;
  }
  std::vector<std::string> stack_layers() const override {
    return {"Application (host code)",
            "Compiler / runtime (host toolchain)",
            "von Neumann CPU"};
  }

  static AcceleratorFactory factory();
};

}  // namespace rebooting::core
