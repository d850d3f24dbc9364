// Job-side vocabulary of the async scheduling runtime (src/scheduler/): the
// per-job knobs a submitter controls — priority, deadline, cooperative
// cancellation — and the queue entry that carries a job from submission to a
// worker thread.
//
// The paper's Fig. 1 host treats accelerators as shared throughput resources;
// once many clients contend for them, jobs need exactly these three controls:
// which work jumps the line (priority), which work is worthless if late
// (deadline), and which work the client no longer wants (cancellation).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/accelerator.h"
#include "core/cache.h"

namespace rebooting::sched {

using Clock = std::chrono::steady_clock;

/// Copyable cooperative-cancellation handle. All copies share one flag: the
/// submitter keeps a copy and calls cancel(); the scheduler checks it before
/// execution (a cancelled job completes ok=false without running), and a
/// payload may capture a copy to poll mid-execution for early exit.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// How hard the scheduler fights for a job before giving up — the per-job
/// half of the resilience layer (DESIGN.md §10). The defaults make a job
/// behave exactly as before the layer existed: one attempt, no backoff, no
/// failover.
struct RetryPolicy {
  /// Total execution attempts across all replicas and pools (>= 1; 0 is
  /// normalized to 1). An attempt refused by an open circuit breaker counts.
  std::size_t max_attempts = 1;
  /// Backoff before retry k (1-based) is
  ///   min(initial_backoff * backoff_multiplier^(k-1), max_backoff)
  /// stretched by a deterministic jitter drawn from Rng::stream(kJitterSeed,
  /// f(seq, k)), where kJitterSeed is a constant (0x5EEDBACC, scheduler.cpp).
  Clock::duration initial_backoff = std::chrono::milliseconds(1);
  core::Real backoff_multiplier = 2.0;
  Clock::duration max_backoff = std::chrono::milliseconds(100);
  /// Symmetric jitter fraction in [0, 1]: the backoff is scaled by a factor
  /// in [1 - jitter, 1 + jitter]. 0 = no jitter.
  core::Real jitter = 0.0;
  /// Total backoff the job may wait out between attempts; once the next
  /// backoff would exceed it, the job fails instead of retrying further.
  Clock::duration retry_budget = Clock::duration::max();
  /// Permit failover to the classical-cpu pool. Only safe for payloads that
  /// ignore their accelerator argument (self-contained core::Job closures);
  /// payloads that downcast to a typed engine API must leave this false.
  bool cpu_fallback = false;
};

/// Per-job scheduling controls, all optional.
struct JobOptions {
  /// Higher runs earlier; jobs of equal priority run in submission (FIFO)
  /// order within their kind's queue.
  int priority = 0;
  /// A job dequeued past its deadline is not executed: it completes with
  /// ok=false and counts into the `sched.deadline_missed` metric. Every
  /// retry is a dequeue, so this holds between attempts too, and a retry
  /// whose backoff would cross the deadline fails at once instead.
  std::optional<Clock::time_point> deadline;
  /// Cooperative cancellation; see CancelToken.
  std::optional<CancelToken> cancel;
  /// Retries, backoff, and failover; default = single attempt.
  RetryPolicy retry;
  /// Permit an idle worker of a *different* kind's pool to steal this job
  /// while it is queued (SchedulerConfig::work_stealing). Like cpu_fallback,
  /// only safe for payloads that ignore their accelerator argument
  /// (self-contained core::Job closures); typed-downcast payloads must leave
  /// this false.
  bool stealable = false;
  /// Opt-in memoization (DESIGN.md §14). Non-empty = "this job is a pure
  /// function of this key": an identical key already cached replays the
  /// stored JobResult without executing, and identical keys in flight
  /// collapse into one execution whose outcome fans out to every submitter
  /// (single-flight).
  /// The submitter owns key correctness — the scheduler cannot see inside
  /// the payload, so a key that omits an input silently replays the wrong
  /// result. Only ok=true, actually-executed results are ever cached.
  /// Ignored by submit_preemptible (a sliced job is a progress stream, not
  /// a pure function) and, like every cache layer, inert when
  /// core::cache_enabled() is off.
  std::string memo_key;
};

/// How a job's outcome reaches its submitter: the scheduler's one completion
/// path (DESIGN.md §7). It is called exactly once per accepted submission,
/// with the job's JobResult, or with an empty JobResult and the exception
/// its payload threw (`thrown` is null otherwise). It runs on whichever
/// thread settles the job:
///   - a worker: the job executed, failed after its retries, threw, was
///     cancelled or expired at dequeue, or found its queue closed when it
///     came back for a retry, a failover hop or the next slice;
///   - the submitter, inside submit(): a memo hit, a kReject rejection, or
///     the kShedOldest victim that the submission evicted;
///   - the thread that calls shutdown(): a job flushed from its queue.
/// No scheduler lock is held while a hook runs, so a hook may read the
/// scheduler (stats(), queue_depth(), ...); drain() returns only after the
/// last hook has returned. A hook holds the thread that settles the job, so
/// it should be quick, and it must not throw: an exception that escapes it
/// is only counted (sched.hook_exceptions).
using CompletionHook =
    std::function<void(core::JobResult result, std::exception_ptr thrown)>;

/// One in-flight memoized execution (single-flight). The first submitter of
/// a memo_key becomes the *leader* and executes normally; later identical
/// submitters become *riders*: their completion hooks park here and are
/// called with a copy of the leader's outcome — result or exception — when
/// it settles. Riders' own cancel/deadline options are honored at delivery
/// time. Guarded by the scheduler's flight registry mutex.
struct MemoFlight {
  struct Rider {
    std::string name;
    JobOptions opts;
    CompletionHook on_complete;
  };

  core::HashKey128 key;
  std::vector<Rider> riders;
};

/// Deadline helper: `opts.deadline = deadline_in(std::chrono::milliseconds(5))`.
inline Clock::time_point deadline_in(Clock::duration d) {
  return Clock::now() + d;
}

/// A payload that receives the worker's own accelerator replica, so typed
/// engine APIs (quantum::QuantumAccelerator::run, ...) are reachable from a
/// pool whose instances the scheduler constructed internally. Downcast to the
/// concrete type of the pool's factory. Self-contained core::Job payloads are
/// wrapped into this form, ignoring the argument.
using DevicePayload = std::function<core::JobResult(core::Accelerator&)>;

/// The scheduler's preemption signal, handed to a preemptible payload at
/// every slice (DESIGN.md §12). The payload polls it at checkpoint
/// boundaries; once it reads true, the payload should save its checkpoint
/// and return std::nullopt, yielding the worker to the higher-priority job.
/// Ignoring the probe is legal — the job merely becomes non-preemptible.
class YieldProbe {
 public:
  YieldProbe() = default;
  explicit YieldProbe(std::function<bool()> should_yield)
      : should_yield_(std::move(should_yield)) {}

  bool should_yield() const { return should_yield_ && should_yield_(); }

 private:
  std::function<bool()> should_yield_;
};

/// A payload executed in scheduler time slices. Returning a JobResult
/// completes the job; returning std::nullopt means "yielded at a checkpoint":
/// the scheduler requeues the remainder (same submission seq, so it
/// resumes at the front of its priority class) and calls the payload again
/// later — possibly on a different worker. The payload object itself carries
/// the resumable state across calls (e.g. a mutable lambda capturing a
/// core::Checkpoint), so it must not assume thread affinity.
using PreemptiblePayload = std::function<std::optional<core::JobResult>(
    core::Accelerator&, const YieldProbe&)>;

/// One queue entry: the job, its controls, the hook that delivers its
/// outcome, and everything the scheduler carries from one dequeue of the job
/// to the next. A job leaves its worker after one attempt or one slice: it
/// either settles or is requeued (a retry, a failover hop or a yield), so
/// this entry is the job's whole state between attempts.
struct QueuedJob {
  std::string name;
  core::AcceleratorKind kind = core::AcceleratorKind::kClassicalCpu;
  DevicePayload payload;
  /// Set instead of `payload` for slice-based jobs (submit_preemptible). The
  /// same object is requeued across yields, so it owns the job's checkpoint
  /// state between slices.
  PreemptiblePayload preemptible;
  JobOptions opts;
  CompletionHook on_complete;
  std::uint64_t seq = 0;  ///< scheduler-global submission order, unique
  Clock::time_point submitted_at{};  ///< start of sched.latency_seconds
  /// The entry is not dequeued before this instant (a retry's backoff); it
  /// also starts the entry's sched.wait_seconds stint.
  Clock::time_point ready_at{};
  // --- attempt bookkeeping, carried across requeues -----------------------
  std::uint64_t attempts = 0;  ///< execution attempts consumed so far
  std::vector<std::string> fault_log;
  Clock::duration backoff_spent{0};  ///< summed backoff, against retry_budget
  core::Real service_seconds = 0.0;  ///< summed payload run time
  /// The most recent ok=false result the payload itself produced; a job that
  /// gives up returns it verbatim, annotated with the attempt bookkeeping.
  std::optional<core::JobResult> last_failure;
  bool failed_over = false;  ///< already re-homed once; never hops again
  bool resumed = false;  ///< requeued after at least one yielded slice
  // --- memoization bookkeeping --------------------------------------------
  /// Set when this job leads a single-flight group; travels with the job
  /// across requeues, and is settled exactly once, by whichever code path
  /// settles the leader.
  std::shared_ptr<MemoFlight> memo_flight;
};

/// What a full queue does with the next submission.
enum class BackpressurePolicy {
  kBlock,      ///< submit() blocks until the queue has room
  kReject,     ///< the new job completes immediately with ok=false
  kShedOldest  ///< the longest-waiting queued job is evicted (ok=false)
};

std::string to_string(BackpressurePolicy policy);

}  // namespace rebooting::sched
