// The asynchronous heterogeneous job scheduler — the host of Fig. 1. It
// owns, per AcceleratorKind, a pool of N worker threads, each with its *own*
// accelerator replica built from a core::AcceleratorFactory, all fed by one
// bounded MPMC priority queue. A synchronous caller is one that submits and
// calls .get() on the future straight away.
//
//   submit()        -> std::future<core::JobResult>, with per-job priority,
//                      deadline, cooperative cancellation, and RetryPolicy
//                      (job.h); or, given a CompletionHook, the outcome is
//                      handed to the hook on the thread that settles the
//                      job. The future is a thin adapter over the hook.
//   submit_batch()  -> fan-out of a job vector, futures in submission order
//   drain()         -> block until every accepted job has finished; the
//                      scheduler keeps accepting new work afterwards
//   shutdown()      -> stop accepting, let in-flight jobs finish, complete
//                      still-queued jobs with ok=false in deterministic
//                      (priority, then FIFO) order; idempotent, run by ~
//
// Execution: a worker runs exactly one attempt (or, for a preemptible job,
// one slice) per dequeue. The job then either settles — one funnel does the
// executed-job accounting, the latency sample, the memo-aware completion
// and the drain bookkeeping — or is requeued into the queue of its kind: a
// yield is ready at once, a retry once its backoff has passed, a failover
// hop at once on the classical-cpu pool. No worker waits out a backoff; it
// serves the queue meanwhile. Cancellation and deadlines are checked at
// every dequeue, so between attempts and slices too.
//
// Resilient execution (DESIGN.md §10): each attempt may be vetoed by the
// worker's deterministic fault injector (core::FaultyAccelerator — wired
// automatically when REBOOTING_FAULTS=<plan.json> is set) or refused by the
// worker's circuit breaker (breaker.h). Failed attempts retry with
// exponential backoff and deterministic jitter under the job's RetryPolicy,
// honoring its deadline and retry budget; a retry may run on any replica of
// the pool. Jobs that opted into cpu_fallback fail over once to the
// classical-cpu pool when their replica's breaker is open or their attempts
// are exhausted. Results carry attempt counts, a fault log, and a
// `degraded` flag instead of a silent ok=false.
//
// Telemetry (when enabled): a `sched.<kind>` span around every payload
// attempt (engine spans opened inside the payload nest under it), executed-
// job counters `sched.jobs` / `sched.jobs_failed` with every
// JobResult::metrics key merged in as a counter, queue-depth gauges
// `sched.queue_depth.<kind>`, wait/service/latency histograms
// `sched.{wait,service,latency}_seconds`, per-kind counters
// `sched.jobs.<kind>` and `sched.busy_seconds.<kind>`, and
// outcome counters `sched.deadline_missed` / `sched.rejected` / `sched.shed`
// / `sched.cancelled` / `sched.flushed` / `sched.payload_exceptions` /
// `sched.hook_exceptions`, plus the resilience counters `sched.attempts` /
// `sched.retries` / `sched.faults_injected` / `sched.breaker_open` /
// `sched.failover` / `sched.degraded`.
//
// Tracing (REBOOTING_TRACE, see telemetry/trace.h): every worker thread is
// named "<kind> worker <replica>", each executed job is a begin/end slice
// named after the job on its worker's track, the submit->dequeue->complete
// hand-off is a flow-arrow chain keyed by the job's submission seq, queue
// depth appears as a counter track per kind, and deadline-expiry /
// cancellation show up as instant markers.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/accelerator.h"
#include "core/cache.h"
#include "core/faults.h"
#include "scheduler/breaker.h"
#include "scheduler/queue.h"

namespace rebooting::sched {

struct SchedulerConfig {
  /// Capacity of each per-kind submission queue.
  std::size_t queue_capacity = 1024;
  /// What a full queue does with the next submission.
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Per-worker circuit breaker; the default threshold of 0 disables it.
  BreakerConfig breaker{};
  /// Let idle workers steal queued jobs marked JobOptions::stealable from
  /// other kinds' pools (DESIGN.md §12). Off by default: stealing changes
  /// which replica runs a job, which only payloads that ignore their
  /// accelerator argument tolerate. A stealing worker polls its own queue
  /// every 2 ms while another pool exists to steal from; while its pool is
  /// the only one, it waits with no deadline until add_pool adds another.
  bool work_stealing = false;
  /// Pin each worker thread to one CPU of the affinity mask of the thread
  /// that calls add_pool, in start order across every pool, wrapping when
  /// workers outnumber CPUs (Linux; elsewhere, or where the kernel refuses,
  /// workers stay unpinned). For a process that owns its host, such as the
  /// rebootd daemon: unpinned, a 4-vCPU VM was seen to keep two busy workers
  /// on one vCPU for seconds while another vCPU idled (DESIGN.md §7).
  bool pin_workers = false;
  /// Sizing of the JobOptions::memo_key result cache (DESIGN.md §14).
  core::CacheConfig memo_cache = [] {
    core::CacheConfig c;
    c.name = "sched.memo";
    return c;
  }();
};

/// Point-in-time utilization snapshot of one kind's pool, aggregated over its
/// replicas.
struct PoolStats {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t in_flight = 0;  ///< popped and currently executing
  std::size_t jobs_completed = 0;
  core::Real busy_seconds = 0.0;
  /// Per-replica breaker health, indexed by replica.
  std::vector<ReplicaHealth> replicas;
  /// Replicas whose breaker is not closed (open or half-open).
  std::size_t breakers_open = 0;
};

/// One coherent snapshot of the whole scheduler — what rebootd serves for a
/// `status` request without poking individual metrics. Taken under the pool
/// map lock; each pool's counters are read without stopping the workers, so
/// the numbers are each individually consistent, not a global atomic cut.
struct SchedulerStats {
  bool accepting = true;
  std::uint64_t submitted = 0;    ///< submissions ever accepted (seq counter)
  std::size_t outstanding = 0;    ///< accepted but not yet completed
  // Time-slicing counters (DESIGN.md §12), scheduler-wide totals.
  std::uint64_t slices = 0;    ///< preemptible payload invocations
  std::uint64_t preempts = 0;  ///< slices that yielded to higher priority
  std::uint64_t resumes = 0;   ///< preempted jobs picked back up
  std::uint64_t steals = 0;    ///< jobs taken from another kind's queue
  // Memoization counters (DESIGN.md §14).
  std::uint64_t memo_hits = 0;    ///< submits replayed from the memo cache
  std::uint64_t memo_riders = 0;  ///< submits collapsed onto an in-flight job
  std::map<core::AcceleratorKind, PoolStats> pools;
};

class Scheduler {
 public:
  explicit Scheduler(SchedulerConfig config = {});
  /// Runs shutdown(); queued-but-unexecuted jobs complete with ok=false, so
  /// no accepted job is ever abandoned.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates the worker pool for `kind`: invokes `factory` `workers` times
  /// (each replica is owned by exactly one worker thread, so replicas never
  /// need internal locking) and starts the threads. One pool per kind; a
  /// duplicate kind throws std::invalid_argument. Thread-safe.
  void add_pool(core::AcceleratorKind kind, std::size_t workers,
                const core::AcceleratorFactory& factory);

  /// Asynchronously submits a self-contained job (payload captures whatever
  /// it runs on). Throws std::out_of_range when no pool of job.kind exists,
  /// std::invalid_argument on a null payload, std::runtime_error after
  /// shutdown(). Under kReject/kShedOldest backpressure the returned (or the
  /// shed victim's) future completes with ok=false rather than throwing.
  std::future<core::JobResult> submit(core::Job job, JobOptions opts = {});

  /// Same, but the payload receives the worker's own accelerator replica —
  /// the way to reach typed engine APIs on scheduler-constructed instances.
  std::future<core::JobResult> submit(std::string name,
                                      core::AcceleratorKind kind,
                                      DevicePayload payload,
                                      JobOptions opts = {});

  /// The completion path every submit goes through: the job's outcome is
  /// handed to `on_complete` exactly once (CompletionHook, job.h) instead
  /// of a future. Throws like submit(), and a null hook is an
  /// std::invalid_argument; a submission that throws was not accepted, and
  /// its hook is never called.
  void submit(std::string name, core::AcceleratorKind kind,
              DevicePayload payload, JobOptions opts,
              CompletionHook on_complete);

  /// Submits a slice-based job (DESIGN.md §12). The payload is invoked
  /// repeatedly; each invocation is one time slice. When it returns a
  /// JobResult the job completes; when it returns std::nullopt ("yielded at
  /// a checkpoint", signalled through the YieldProbe once a higher-priority
  /// job is queued on this pool) the remainder is requeued with its
  /// original submission seq — so it resumes at the front of its priority
  /// class — and the worker turns to the queue. Preemptible jobs bypass the
  /// retry/fault/breaker machinery: a slice is cheap to re-run from its own
  /// checkpoint, so resilience lives in the payload's checkpoint, not in
  /// attempt bookkeeping. Cancellation and deadlines are honored between
  /// slices (each slice re-transits the queue's pre-execution checks).
  std::future<core::JobResult> submit_preemptible(std::string name,
                                                  core::AcceleratorKind kind,
                                                  PreemptiblePayload payload,
                                                  JobOptions opts = {});
  /// Same, with the outcome handed to a completion hook, as in submit().
  void submit_preemptible(std::string name, core::AcceleratorKind kind,
                          PreemptiblePayload payload, JobOptions opts,
                          CompletionHook on_complete);

  /// Fan-out: submits every job, returns futures in submission order for the
  /// caller's fan-in (wait on all, then combine).
  std::vector<std::future<core::JobResult>> submit_batch(
      std::vector<core::Job> jobs, JobOptions opts = {});

  /// Blocks until every accepted job has completed: its completion hook has
  /// returned (its future is ready). The scheduler continues accepting
  /// work afterwards — drain is a barrier, not an end-of-life.
  void drain();

  /// Stops accepting submissions, closes all queues, joins the workers (an
  /// in-flight attempt or slice finishes; a job it would requeue settles
  /// kFlushed instead), then completes every still-queued job — including
  /// retries waiting out a backoff — with ok=false (kFlushed, keeping its
  /// attempts and fault log) in queue (priority, then FIFO) order, on the
  /// calling thread and with no scheduler lock held. Idempotent.
  void shutdown();

  /// False once shutdown() has begun.
  bool accepting() const {
    return accepting_.load(std::memory_order_acquire);
  }

  bool has_pool(core::AcceleratorKind kind) const;
  /// Queued (not yet running) jobs of `kind`; throws std::out_of_range when
  /// no such pool exists.
  std::size_t queue_depth(core::AcceleratorKind kind) const;
  PoolStats stats(core::AcceleratorKind kind) const;
  /// Snapshot of every pool plus the scheduler-level counters, in one struct.
  SchedulerStats stats() const;
  /// Per-replica health (breaker state, failure counts) of one pool, indexed
  /// by replica; throws std::out_of_range when no such pool exists.
  std::vector<ReplicaHealth> health(core::AcceleratorKind kind) const;

  /// Multi-line report of the pools, their replicas, utilization, and each
  /// kind's Fig. 2 stack layers (L<n> application down to L1 device) — the
  /// textual form of the Fig. 1 system picture.
  std::string describe() const;

 private:
  /// Per-worker-thread resilience state (one per replica).
  struct Worker {
    CircuitBreaker breaker;
    explicit Worker(const BreakerConfig& config) : breaker(config) {}
  };

  struct Pool {
    core::AcceleratorKind kind;
    BoundedJobQueue queue;
    std::vector<std::shared_ptr<core::Accelerator>> replicas;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::thread> threads;
    // Pre-built telemetry names, so the hot path does no string assembly
    // beyond what the registry itself needs.
    std::string depth_gauge, jobs_counter, busy_counter;

    Pool(core::AcceleratorKind k, std::size_t capacity,
         BackpressurePolicy policy);
  };

  Pool* find_pool(core::AcceleratorKind kind) const;
  /// The pool of `kind`, or nullptr; lock-free, so worker-side paths never
  /// wait on pools_mutex_.
  Pool* pool_of(core::AcceleratorKind kind) const;
  static PoolStats snapshot_pool(const Pool& pool);
  /// Shared tail of submit/submit_preemptible: assign seq, push, handle
  /// backpressure verdicts.
  void enqueue(QueuedJob item, Pool* pool);
  void worker_loop(Pool& pool, core::Accelerator& replica, Worker& state,
                   std::size_t replica_index);
  /// Runs one attempt or one slice of a dequeued job on this worker, which
  /// ends in settle() or requeue(). `source` is the queue the job was popped
  /// or stolen from (and owed a task_done by the caller).
  void execute(Pool& pool, BoundedJobQueue& source, core::Accelerator& replica,
               core::Accelerator& target, core::FaultyAccelerator* faulty,
               Worker& state, QueuedJob item);
  /// One time slice of a preemptible job (no retry/fault/breaker machinery;
  /// see submit_preemptible).
  void run_slice(Pool& pool, BoundedJobQueue& source,
                 core::Accelerator& replica, core::Accelerator& target,
                 QueuedJob& item);
  /// One attempt under the job's RetryPolicy, breaker and fault injector;
  /// a failed attempt is retried, failed over or given up on.
  void run_attempt(Pool& pool, core::Accelerator& replica,
                   core::Accelerator& target, core::FaultyAccelerator* faulty,
                   Worker& state, QueuedJob& item);
  /// True when a pool other than `pool` exists: a victim to steal from.
  bool has_other_pool(const Pool& pool) const;
  /// Picks the deepest other pool's queue and steals its best stealable job.
  std::optional<QueuedJob> steal_from_other_pool(const Pool& thief,
                                                 BoundedJobQueue*& source);
  /// Puts `item` back into the queue of item.kind, dequeueable from
  /// `ready_at` on; a closed queue settles it kFlushed instead.
  void requeue(QueuedJob&& item, Clock::time_point ready_at);
  /// The one way a dequeued job completes: stamps the attempt bookkeeping on
  /// `result`, does the executed-job accounting for `pool`, records
  /// sched.latency_seconds from submission, ends the job's flow, and
  /// completes it (with `thrown`, when set).
  void settle(const Pool& pool, QueuedJob& item, core::JobResult result,
              std::exception_ptr thrown = nullptr);
  Clock::duration backoff_delay(const RetryPolicy& retry, std::size_t attempt,
                                std::uint64_t seq) const;
  /// Completes a job that will not run again (shed / rejected / flushed).
  void complete_unrun(QueuedJob&& item, const std::string& why,
                      const char* metric, core::JobDisposition disposition);
  void track_accept();
  void track_complete();

  // --- memoization (DESIGN.md §14) ----------------------------------------
  /// The single funnel that calls a job's completion hook, with `result`
  /// or, when set, the exception `thrown`: settles the job's memo flight
  /// (if it leads one) first, so riders can never outlive their leader, and
  /// receive the same outcome.
  void fulfill(QueuedJob& item, core::JobResult&& result,
               std::exception_ptr thrown = nullptr);
  /// Removes the flight from the registry (no rider can attach afterwards),
  /// caches an ok + actually-executed result, and fans the outcome out to
  /// every rider — honoring each rider's own cancel/deadline at delivery.
  void settle_flight(const std::shared_ptr<MemoFlight>& flight,
                     const core::JobResult* result, std::exception_ptr thrown);
  /// Memo fast paths of submit(): replay a cached result through
  /// `on_complete` on the calling thread, or park it as a rider on an
  /// identical in-flight job. Returns true when it did either (the hook is
  /// consumed), false when the job must enqueue normally (possibly now
  /// leading `flight_out`).
  bool try_memo(const std::string& name, const JobOptions& opts,
                CompletionHook& on_complete,
                std::shared_ptr<MemoFlight>* flight_out);

  SchedulerConfig config_;
  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> next_seq_{0};
  std::once_flag shutdown_once_;

  // Time-slicing counters (also exported as sched.{slices,preempt,resume,
  // steal} metrics and trace instants).
  std::atomic<std::uint64_t> slices_{0};
  std::atomic<std::uint64_t> preempts_{0};
  std::atomic<std::uint64_t> resumes_{0};
  std::atomic<std::uint64_t> steals_{0};

  // Memoization: the result cache and the in-flight single-flight registry.
  // flights_mutex_ is a leaf lock (never held while calling user code or
  // taking another scheduler lock).
  core::ShardedCache<core::JobResult> memo_cache_;
  std::mutex flights_mutex_;
  std::unordered_map<core::HashKey128, std::shared_ptr<MemoFlight>,
                     core::HashKey128Hash>
      flights_;
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_riders_{0};

  // drain() bookkeeping: accepted-but-uncompleted jobs. Counted around the
  // completion hook, not at the queue, so a failover hop between pools can
  // never open a window where every queue looks idle while a job is
  // mid-flight.
  mutable std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  std::size_t outstanding_ = 0;

  mutable std::mutex pools_mutex_;  ///< guards the map shape, not the pools
  std::map<core::AcceleratorKind, std::unique_ptr<Pool>> pools_;
  /// Worker threads started so far, over all pools (guarded by
  /// pools_mutex_): the next one's CPU when config_.pin_workers is set.
  std::size_t workers_started_ = 0;
  /// pools_ indexed by kind (AcceleratorKind is a dense enum ending at
  /// kMemcomputing), each slot published once by add_pool and read by
  /// pool_of without the lock.
  std::array<std::atomic<Pool*>,
             static_cast<std::size_t>(core::AcceleratorKind::kMemcomputing) + 1>
      by_kind_{};
};

}  // namespace rebooting::sched
