#include "scheduler/scheduler.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <cmath>
#include <future>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/random.h"
#include "telemetry/telemetry.h"

namespace rebooting::sched {

namespace {

/// Seed of the deterministic backoff jitter (RetryPolicy::jitter): retry
/// timing is reproducible given the submission order.
constexpr std::uint64_t kJitterSeed = 0x5EEDBACCull;

core::Real seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<core::Real>(b - a).count();
}

std::string attempt_prefix(std::uint64_t attempt) {
  return "attempt " + std::to_string(attempt) + ": ";
}

/// The verdict on a job whose answer is no longer wanted: cancelled, or past
/// its deadline. nullopt means the job may run (or its result be delivered).
/// Checked at every dequeue, at a memo replay and at every rider delivery.
std::optional<core::JobResult> cancelled_or_expired(const std::string& name,
                                                    const JobOptions& opts) {
  core::JobResult result;
  if (opts.cancel && opts.cancel->cancelled()) {
    result.disposition = core::JobDisposition::kCancelled;
    result.summary = "sched: job '" + name + "' cancelled before execution";
    telemetry::count("sched.cancelled");
    TELEM_TRACE_INSTANT("sched.cancelled");
    return result;
  }
  if (opts.deadline && Clock::now() >= *opts.deadline) {
    result.disposition = core::JobDisposition::kDeadlineMissed;
    result.summary = "sched: job '" + name + "' missed its deadline";
    telemetry::count("sched.deadline_missed");
    TELEM_TRACE_INSTANT("sched.deadline_expired");
    return result;
  }
  return std::nullopt;
}

/// Pins `thread` to the `ordinal`-th CPU (mod their count) of the calling
/// thread's affinity mask. Best effort: a refusal leaves the thread free.
/// `thread` must not have exited: a worker cannot, since its queue closes
/// only in shutdown(), under the pools_mutex_ that add_pool holds.
void pin_to_cpu(std::thread& thread, std::size_t ordinal) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const auto count = static_cast<std::size_t>(CPU_COUNT(&allowed));
  if (count == 0) return;
  std::size_t skip = ordinal % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(thread.native_handle(), sizeof(one), &one);
    return;
  }
#else
  (void)thread;
  (void)ordinal;
#endif
}

/// Calls a completion hook. A hook that throws, against its contract, must
/// not end the settling thread with the job still counted outstanding: the
/// exception is counted as sched.hook_exceptions and goes no further.
void call_hook(const CompletionHook& hook, core::JobResult&& result,
               std::exception_ptr thrown) {
  try {
    hook(std::move(result), std::move(thrown));
  } catch (...) {
    telemetry::count("sched.hook_exceptions");
  }
}

/// The future adapter: a hook that settles a promise, whose future it leaves
/// in `*future`. std::function needs a copyable target, hence the shared_ptr.
CompletionHook promise_hook(std::future<core::JobResult>* future) {
  auto promise = std::make_shared<std::promise<core::JobResult>>();
  *future = promise->get_future();
  return [promise = std::move(promise)](core::JobResult result,
                                        std::exception_ptr thrown) {
    if (thrown)
      promise->set_exception(std::move(thrown));
    else
      promise->set_value(std::move(result));
  };
}

}  // namespace

Scheduler::Pool::Pool(core::AcceleratorKind k, std::size_t capacity,
                      BackpressurePolicy policy)
    : kind(k),
      queue(capacity, policy),
      depth_gauge("sched.queue_depth." + core::to_string(k)),
      jobs_counter("sched.jobs." + core::to_string(k)),
      busy_counter("sched.busy_seconds." + core::to_string(k)) {}

Scheduler::Scheduler(SchedulerConfig config)
    : config_(std::move(config)), memo_cache_(config_.memo_cache) {}

Scheduler::~Scheduler() { shutdown(); }

void Scheduler::add_pool(core::AcceleratorKind kind, std::size_t workers,
                         const core::AcceleratorFactory& factory) {
  if (workers == 0)
    throw std::invalid_argument("sched: pool needs at least one worker");
  if (!factory) throw std::invalid_argument("sched: null accelerator factory");
  auto& slot = by_kind_.at(static_cast<std::size_t>(kind));

  // REBOOTING_FAULTS wiring: kinds covered by the environment plan get their
  // replicas built behind deterministic fault injectors.
  core::AcceleratorFactory build = factory;
  if (const auto plan = core::FaultPlan::from_env()) {
    const core::FaultSpec* spec = plan->spec_for(kind);
    if (spec && spec->enabled())
      build = core::FaultyAccelerator::wrap(build, plan);
  }

  auto pool = std::make_unique<Pool>(kind, config_.queue_capacity,
                                     config_.backpressure);
  pool->replicas.reserve(workers);
  pool->workers.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    auto replica = build();
    if (!replica)
      throw std::invalid_argument("sched: factory returned a null accelerator");
    if (replica->kind() != kind)
      throw std::invalid_argument(
          "sched: factory built a '" + core::to_string(replica->kind()) +
          "' accelerator for the '" + core::to_string(kind) + "' pool");
    pool->replicas.push_back(std::move(replica));
    pool->workers.push_back(std::make_unique<Worker>(config_.breaker));
  }

  // The map insert and the thread starts stay under one lock so shutdown()
  // can never observe a pool with a half-built thread vector.
  std::lock_guard lock(pools_mutex_);
  if (!accepting())
    throw std::runtime_error("sched: add_pool after shutdown");
  auto [it, inserted] = pools_.emplace(kind, std::move(pool));
  if (!inserted)
    throw std::invalid_argument(
        "sched: pool for kind '" + core::to_string(kind) +
        "' already exists (" + std::to_string(it->second->replicas.size()) +
        " worker(s)); size a pool via the `workers` argument instead of "
        "adding it twice");
  Pool& p = *it->second;
  slot.store(&p, std::memory_order_release);
  for (std::size_t i = 0; i < workers; ++i) {
    p.threads.emplace_back(&Scheduler::worker_loop, this, std::ref(p),
                           std::ref(*p.replicas[i]), std::ref(*p.workers[i]),
                           i);
    if (config_.pin_workers) pin_to_cpu(p.threads.back(), workers_started_);
    ++workers_started_;
  }
}

Scheduler::Pool* Scheduler::pool_of(core::AcceleratorKind kind) const {
  return by_kind_[static_cast<std::size_t>(kind)].load(
      std::memory_order_acquire);
}

Scheduler::Pool* Scheduler::find_pool(core::AcceleratorKind kind) const {
  Pool* pool = pool_of(kind);
  if (!pool)
    throw std::out_of_range("sched: no worker pool for kind '" +
                            core::to_string(kind) + "'");
  return pool;
}

std::future<core::JobResult> Scheduler::submit(core::Job job,
                                               JobOptions opts) {
  if (!job.payload)
    throw std::invalid_argument("sched: job '" + job.name +
                                "' has no payload");
  DevicePayload payload = [p = std::move(job.payload)](core::Accelerator&) {
    return p();
  };
  return submit(std::move(job.name), job.kind, std::move(payload),
                std::move(opts));
}

std::future<core::JobResult> Scheduler::submit(std::string name,
                                               core::AcceleratorKind kind,
                                               DevicePayload payload,
                                               JobOptions opts) {
  std::future<core::JobResult> future;
  submit(std::move(name), kind, std::move(payload), std::move(opts),
         promise_hook(&future));
  return future;
}

void Scheduler::submit(std::string name, core::AcceleratorKind kind,
                       DevicePayload payload, JobOptions opts,
                       CompletionHook on_complete) {
  if (!payload)
    throw std::invalid_argument("sched: job '" + name + "' has no payload");
  if (!on_complete)
    throw std::invalid_argument("sched: job '" + name +
                                "' has no completion hook");
  if (!accepting())
    throw std::runtime_error("sched: submit('" + name + "') after shutdown");
  Pool* pool = find_pool(kind);

  std::shared_ptr<MemoFlight> flight;
  if (try_memo(name, opts, on_complete, &flight)) return;

  QueuedJob item;
  item.name = std::move(name);
  item.kind = kind;
  item.payload = std::move(payload);
  item.opts = std::move(opts);
  item.on_complete = std::move(on_complete);
  item.memo_flight = std::move(flight);
  enqueue(std::move(item), pool);
}

bool Scheduler::try_memo(const std::string& name, const JobOptions& opts,
                         CompletionHook& on_complete,
                         std::shared_ptr<MemoFlight>* flight_out) {
  if (opts.memo_key.empty() || !core::cache_enabled()) return false;
  core::HashWriter w;
  w.str(opts.memo_key);
  const core::HashKey128 key = w.finish();

  if (const auto cached = memo_cache_.get(key)) {
    // Replay. The submitter's own pre-execution gates still apply — a
    // cancelled or already-expired job must not look like it ran.
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.memo_hit");
    TELEM_TRACE_INSTANT("sched.memo_hit");
    call_hook(on_complete,
              cancelled_or_expired(name, opts).value_or(*cached), nullptr);
    return true;
  }

  std::lock_guard lock(flights_mutex_);
  const auto it = flights_.find(key);
  if (it != flights_.end()) {
    // Single-flight: ride the in-flight leader instead of executing again.
    memo_riders_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.memo_rider");
    TELEM_TRACE_INSTANT("sched.memo_rider");
    it->second->riders.push_back({name, opts, std::move(on_complete)});
    track_accept();
    return true;
  }
  // No cached result, no flight: this submission leads a new one.
  auto flight = std::make_shared<MemoFlight>();
  flight->key = key;
  flights_.emplace(key, flight);
  *flight_out = std::move(flight);
  return false;
}

void Scheduler::fulfill(QueuedJob& item, core::JobResult&& result,
                        std::exception_ptr thrown) {
  if (item.memo_flight) {
    settle_flight(item.memo_flight, thrown ? nullptr : &result, thrown);
    item.memo_flight.reset();
  }
  call_hook(item.on_complete, std::move(result), std::move(thrown));
  track_complete();
}

void Scheduler::settle_flight(const std::shared_ptr<MemoFlight>& flight,
                              const core::JobResult* result,
                              std::exception_ptr thrown) {
  std::vector<MemoFlight::Rider> riders;
  {
    // Erase before delivering: once settled, a new identical submit starts a
    // fresh flight (or hits the cache) instead of attaching to this one.
    std::lock_guard lock(flights_mutex_);
    flights_.erase(flight->key);
    riders = std::move(flight->riders);
    flight->riders.clear();
  }
  if (result && result->ok &&
      result->disposition == core::JobDisposition::kExecuted) {
    // Only a genuine success is worth replaying; cancellations, deadline
    // misses, shed/flushed verdicts, and fault-storm failures must re-execute
    // next time.
    std::size_t bytes = sizeof(core::JobResult) + result->summary.size();
    for (const auto& [key, value] : result->metrics)
      bytes += key.size() + sizeof(value);
    for (const auto& line : result->fault_log) bytes += line.size();
    memo_cache_.put(flight->key, std::make_shared<core::JobResult>(*result),
                    bytes);
  }
  for (auto& rider : riders) {
    call_hook(rider.on_complete,
              thrown ? core::JobResult{}
                     : cancelled_or_expired(rider.name, rider.opts)
                           .value_or(*result),
              thrown);
    track_complete();
  }
}

std::future<core::JobResult> Scheduler::submit_preemptible(
    std::string name, core::AcceleratorKind kind, PreemptiblePayload payload,
    JobOptions opts) {
  std::future<core::JobResult> future;
  submit_preemptible(std::move(name), kind, std::move(payload),
                     std::move(opts), promise_hook(&future));
  return future;
}

void Scheduler::submit_preemptible(std::string name,
                                   core::AcceleratorKind kind,
                                   PreemptiblePayload payload,
                                   JobOptions opts,
                                   CompletionHook on_complete) {
  if (!payload)
    throw std::invalid_argument("sched: job '" + name + "' has no payload");
  if (!on_complete)
    throw std::invalid_argument("sched: job '" + name +
                                "' has no completion hook");
  if (!accepting())
    throw std::runtime_error("sched: submit('" + name + "') after shutdown");
  Pool* pool = find_pool(kind);

  QueuedJob item;
  item.name = std::move(name);
  item.kind = kind;
  item.preemptible = std::move(payload);
  item.opts = std::move(opts);
  item.on_complete = std::move(on_complete);
  enqueue(std::move(item), pool);
}

void Scheduler::enqueue(QueuedJob item, Pool* pool) {
  item.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  item.submitted_at = item.ready_at = Clock::now();
  track_accept();

  // The submit slice brackets the (possibly blocking) push, and the flow
  // arrow it contains starts the per-job submit -> dequeue -> complete chain.
  const std::uint64_t seq = item.seq;
  telemetry::TraceScope submit_scope(
      telemetry::trace_enabled() ? "sched.submit" : nullptr, "sched", seq);

  // push() may block (kBlock policy) — never under pools_mutex_.
  std::optional<QueuedJob> shed;
  const auto status = pool->queue.push(item, &shed);
  if (shed)
    complete_unrun(std::move(*shed), "shed by backpressure (queue full)",
                   "sched.shed", core::JobDisposition::kShed);
  switch (status) {
    case BoundedJobQueue::PushStatus::kAccepted:
      TELEM_TRACE_FLOW_BEGIN("job", seq);
      telemetry::gauge(pool->depth_gauge,
                       static_cast<core::Real>(pool->queue.size()));
      break;
    case BoundedJobQueue::PushStatus::kRejected:
      complete_unrun(std::move(item), "rejected by backpressure (queue full)",
                     "sched.rejected", core::JobDisposition::kRejected);
      break;
    case BoundedJobQueue::PushStatus::kClosed:
      complete_unrun(std::move(item), "not accepted: scheduler shut down",
                     "sched.flushed", core::JobDisposition::kFlushed);
      break;
  }
}

std::vector<std::future<core::JobResult>> Scheduler::submit_batch(
    std::vector<core::Job> jobs, JobOptions opts) {
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(submit(std::move(job), opts));
  return futures;
}

void Scheduler::worker_loop(Pool& pool, core::Accelerator& replica,
                            Worker& state, std::size_t replica_index) {
  // Tags every slice this worker ever emits with its kind + replica: the
  // exported timeline shows one named track per replica per pool.
  telemetry::TraceRecorder::instance().set_thread_name(
      core::to_string(pool.kind) + " worker " + std::to_string(replica_index));
  // The fault injector, when this replica carries one. Payloads receive the
  // *inner* accelerator so typed downcasts still work.
  auto* faulty = dynamic_cast<core::FaultyAccelerator*>(&replica);
  core::Accelerator& target = faulty ? faulty->inner() : replica;
  for (;;) {
    BoundedJobQueue* source = &pool.queue;
    std::optional<QueuedJob> popped;
    if (config_.work_stealing) {
      // Poll the home queue briefly, then go looking for an overloaded
      // victim pool; an idle system just cycles the poll.
      popped = pool.queue.pop(Clock::now() + config_.steal_poll);
      if (!popped) {
        if (pool.queue.closed()) break;
        popped = steal_from_other_pool(pool, source);
        if (!popped) continue;
        steals_.fetch_add(1, std::memory_order_relaxed);
        telemetry::count("sched.steal");
        TELEM_TRACE_INSTANT("sched.steal");
      }
    } else {
      popped = pool.queue.pop();
      if (!popped) break;
    }
    execute(pool, *source, replica, target, faulty, state,
            std::move(*popped));
  }
}

std::optional<QueuedJob> Scheduler::steal_from_other_pool(
    const Pool& thief, BoundedJobQueue*& source) {
  Pool* victim = nullptr;
  std::size_t deepest = 0;
  for (const auto& slot : by_kind_) {
    Pool* pool = slot.load(std::memory_order_acquire);
    if (!pool || pool == &thief) continue;
    const std::size_t depth = pool->queue.size();
    if (depth > deepest) {
      deepest = depth;
      victim = pool;
    }
  }
  if (!victim) return std::nullopt;
  auto stolen = victim->queue.try_steal();
  if (stolen) source = &victim->queue;
  return stolen;
}

void Scheduler::execute(Pool& pool, BoundedJobQueue& source,
                        core::Accelerator& replica, core::Accelerator& target,
                        core::FaultyAccelerator* faulty, Worker& state,
                        QueuedJob item) {
  // One wait stint per dequeue, from the moment the entry became ready, so
  // a retry's backoff is not reported as queue wait.
  telemetry::record("sched.wait_seconds",
                    seconds_between(item.ready_at, Clock::now()));
  telemetry::gauge(pool.depth_gauge,
                   static_cast<core::Real>(pool.queue.size()));

  // One slice per dequeue, named after the job, covering everything that
  // happens to it on this worker (the attempt, the slice, or the
  // cancel/deadline verdict). The flow step hooks the arrow from the submit
  // slice (or the previous requeue) here.
  telemetry::TraceScope job_scope(
      telemetry::trace_enabled()
          ? telemetry::TraceRecorder::instance().intern(item.name)
          : nullptr,
      "sched", item.seq);
  TELEM_TRACE_FLOW_STEP("job", item.seq);

  if (auto verdict = cancelled_or_expired(item.name, item.opts))
    settle(pool, item, std::move(*verdict));
  else if (item.preemptible)
    run_slice(pool, source, replica, target, item);
  else
    run_attempt(pool, replica, target, faulty, state, item);
  source.task_done();
}

void Scheduler::run_slice(Pool& pool, BoundedJobQueue& source,
                          core::Accelerator& replica,
                          core::Accelerator& target, QueuedJob& item) {
  // Preemptible jobs bypass the retry/fault/breaker machinery on purpose:
  // their unit of resilience is the checkpoint carried inside the payload,
  // and the chaos suite exercises crash-resume rather than in-line retries.
  if (item.resumed) {
    resumes_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.resume");
    TELEM_TRACE_INSTANT("sched.resume");
  }
  // The probe a cooperative payload polls at its checkpoint boundaries:
  // "is anything outranking me queued where I came from?"
  const int priority = item.opts.priority;
  const YieldProbe probe([&source, priority] {
    return source.has_higher_priority_queued(priority);
  });

  const auto start = Clock::now();
  std::optional<core::JobResult> res;
  try {
    TELEM_SPAN("sched." + core::to_string(pool.kind));
    res = item.preemptible(target, probe);
  } catch (...) {
    telemetry::count("sched.payload_exceptions");
    settle(pool, item, {}, std::current_exception());
    return;
  }
  const core::Real service = seconds_between(start, Clock::now());
  item.service_seconds += service;
  replica.record_completion(service);
  slices_.fetch_add(1, std::memory_order_relaxed);
  if (telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("sched.slices");
    metrics.add(pool.busy_counter, service);
    metrics.record("sched.service_seconds", service);
  }

  if (!res) {
    // Yielded at a checkpoint: the remainder goes back with its original
    // seq — the front of its priority class — and the worker turns to the
    // higher-priority work that triggered the preemption.
    preempts_.fetch_add(1, std::memory_order_relaxed);
    telemetry::count("sched.preempt");
    TELEM_TRACE_INSTANT("sched.preempt");
    item.resumed = true;
    requeue(std::move(item), Clock::now());
    return;
  }
  item.attempts = 1;
  settle(pool, item, std::move(*res));
}

void Scheduler::run_attempt(Pool& pool, core::Accelerator& replica,
                            core::Accelerator& target,
                            core::FaultyAccelerator* faulty, Worker& state,
                            QueuedJob& item) {
  // Health gate: an open breaker refuses the attempt on this replica.
  const bool refused = !state.breaker.allow();
  std::exception_ptr thrown;
  if (!refused) {
    const std::uint64_t attempt = ++item.attempts;
    telemetry::count("sched.attempts");
    const auto log_fault = [&](const std::string& what) {
      item.fault_log.push_back(attempt_prefix(attempt) + what);
      telemetry::count("sched.faults_injected");
      TELEM_TRACE_INSTANT("sched.fault_injected");
    };
    core::FaultOutcome fault;
    if (faulty) fault = faulty->on_attempt(item.seq, attempt);
    if (fault.kind == core::FaultKind::kTransient ||
        fault.kind == core::FaultKind::kPermanent) {
      // The device "failed" before doing any work: the payload never runs.
      log_fault(fault.description);
    } else {
      if (fault.kind == core::FaultKind::kLatencySpike) {
        // The device stalls, then works: the one sleep on a worker.
        log_fault(fault.description);
        std::this_thread::sleep_for(
            std::chrono::duration<core::Real>(fault.latency_seconds));
      }
      const auto start = Clock::now();
      core::JobResult result;
      try {
        TELEM_SPAN("sched." + core::to_string(pool.kind));
        result = item.payload(target);
      } catch (...) {
        thrown = std::current_exception();
        telemetry::count("sched.payload_exceptions");
      }
      const core::Real service = seconds_between(start, Clock::now());
      item.service_seconds += service;
      replica.record_completion(service);
      if (telemetry::Telemetry::enabled()) {
        auto& metrics = telemetry::Telemetry::instance().metrics();
        metrics.add(pool.busy_counter, service);
        metrics.record("sched.service_seconds", service);
      }
      if (thrown) {
        item.fault_log.push_back(attempt_prefix(attempt) + "payload threw");
      } else if (fault.kind == core::FaultKind::kCorruption) {
        log_fault(fault.description);
      } else if (!result.ok) {
        item.fault_log.push_back(attempt_prefix(attempt) +
                                 "payload failed: " + result.summary);
        item.last_failure = std::move(result);
      } else {
        state.breaker.record_success();
        result.degraded = attempt > 1 || item.failed_over;
        settle(pool, item, std::move(result));
        return;
      }
    }
    if (state.breaker.record_failure()) {
      telemetry::count("sched.breaker_open");
      TELEM_TRACE_INSTANT("sched.breaker_open");
    }
  }

  // The attempt failed or was refused: fail over, give up, or retry.
  RetryPolicy& retry = item.opts.retry;
  const std::size_t max_attempts = std::max<std::size_t>(retry.max_attempts, 1);
  if ((refused || item.attempts >= max_attempts) && retry.cpu_fallback &&
      !item.failed_over &&
      pool.kind != core::AcceleratorKind::kClassicalCpu &&
      pool_of(core::AcceleratorKind::kClassicalCpu)) {
    item.fault_log.push_back(
        refused ? "breaker open on " + core::to_string(pool.kind) +
                      " replica; failing over"
                : "attempts exhausted on " + core::to_string(pool.kind) +
                      "; failing over to classical-cpu");
    // A job whose attempts are spent still gets the one attempt the hop
    // promises it.
    retry.max_attempts = std::max<std::size_t>(max_attempts, item.attempts + 1);
    item.kind = core::AcceleratorKind::kClassicalCpu;
    item.failed_over = true;
    telemetry::count("sched.failover");
    TELEM_TRACE_INSTANT("sched.failover");
    requeue(std::move(item), Clock::now());
    return;
  }
  if (refused)
    item.fault_log.push_back(attempt_prefix(++item.attempts) +
                             "circuit breaker open, execution refused");

  const auto give_up = [&](const std::string& why) {
    core::JobResult result;
    if (item.last_failure)
      result = std::move(*item.last_failure);
    else
      result.summary = "sched: job '" + item.name + "' failed after " +
                       std::to_string(item.attempts) + " attempt(s)" + why;
    settle(pool, item, std::move(result));
  };
  if (item.attempts >= max_attempts) {
    // A final attempt that threw propagates the exception, as a
    // single-attempt job always did.
    if (thrown)
      settle(pool, item, {}, std::move(thrown));
    else
      give_up("");
    return;
  }
  const auto delay = backoff_delay(retry, item.attempts, item.seq);
  const auto now = Clock::now();
  const std::string after =
      " after " + std::to_string(item.attempts) + " attempt(s)";
  if (item.backoff_spent + delay > retry.retry_budget) {
    item.fault_log.push_back("retry budget exhausted" + after);
    give_up("; retry budget exhausted");
  } else if (item.opts.deadline && now + delay >= *item.opts.deadline) {
    telemetry::count("sched.deadline_missed");
    TELEM_TRACE_INSTANT("sched.deadline_expired");
    item.fault_log.push_back(
        "backoff would cross the deadline; giving up" + after);
    give_up("; backoff would cross the deadline");
  } else {
    telemetry::count("sched.retries");
    TELEM_TRACE_INSTANT("sched.retry");
    item.backoff_spent += delay;
    requeue(std::move(item), now + delay);
  }
}

void Scheduler::requeue(QueuedJob&& item, Clock::time_point ready_at) {
  // The requeue hop in the job's flow chain: submit -> dequeue -> requeue
  // -> dequeue ... -> complete.
  TELEM_TRACE_FLOW_STEP("job", item.seq);
  item.ready_at = ready_at;
  Pool& pool = *pool_of(item.kind);
  if (!pool.queue.requeue(item)) {
    complete_unrun(std::move(item), "flushed at shutdown", "sched.flushed",
                   core::JobDisposition::kFlushed);
    return;
  }
  telemetry::gauge(pool.depth_gauge,
                   static_cast<core::Real>(pool.queue.size()));
}

void Scheduler::settle(const Pool& pool, QueuedJob& item,
                       core::JobResult result, std::exception_ptr thrown) {
  result.attempts = item.attempts;
  result.wall_seconds = item.service_seconds;
  result.fault_log = std::move(item.fault_log);
  // Executed jobs — ran to a verdict or threw — count on the pool that ran
  // them; a cancel/deadline verdict at dequeue counts elsewhere.
  if ((thrown || result.disposition == core::JobDisposition::kExecuted) &&
      telemetry::Telemetry::enabled()) {
    auto& metrics = telemetry::Telemetry::instance().metrics();
    metrics.add("sched.jobs");
    metrics.add(pool.jobs_counter);
    if (!thrown && !result.ok) metrics.add("sched.jobs_failed");
    if (result.degraded) metrics.add("sched.degraded");
    for (const auto& [key, value] : result.metrics) metrics.add(key, value);
  }
  telemetry::record("sched.latency_seconds",
                    seconds_between(item.submitted_at, Clock::now()));
  TELEM_TRACE_FLOW_END("job", item.seq);
  fulfill(item, std::move(result), std::move(thrown));
}

Clock::duration Scheduler::backoff_delay(const RetryPolicy& retry,
                                         std::size_t attempt,
                                         std::uint64_t seq) const {
  core::Real seconds =
      std::chrono::duration<core::Real>(retry.initial_backoff).count() *
      std::pow(retry.backoff_multiplier, static_cast<core::Real>(attempt - 1));
  seconds = std::min(
      seconds, std::chrono::duration<core::Real>(retry.max_backoff).count());
  if (retry.jitter > 0.0) {
    // Counter-based, like the fault verdicts: the jitter of retry k of job
    // seq is a pure function of (kJitterSeed, seq, k).
    core::Rng rng = core::Rng::stream(kJitterSeed,
                                      (seq << 7) | (attempt & 0x7Full));
    seconds *= 1.0 + retry.jitter * (2.0 * rng.uniform() - 1.0);
  }
  seconds = std::max(seconds, 0.0);
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<core::Real>(seconds));
}

void Scheduler::complete_unrun(QueuedJob&& item, const std::string& why,
                               const char* metric,
                               core::JobDisposition disposition) {
  telemetry::count(metric);
  TELEM_TRACE_INSTANT(metric);  // metric names are literals: safe to record
  core::JobResult result;
  result.ok = false;
  result.disposition = disposition;
  result.summary = "sched: job '" + item.name + "' " + why;
  result.attempts = item.attempts;
  result.fault_log = std::move(item.fault_log);
  fulfill(item, std::move(result));
}

void Scheduler::track_accept() {
  std::lock_guard lock(drain_mutex_);
  ++outstanding_;
}

void Scheduler::track_complete() {
  std::lock_guard lock(drain_mutex_);
  if (--outstanding_ == 0) drain_cv_.notify_all();
}

void Scheduler::drain() {
  // Counted around the completion hook (track_accept before the job can
  // settle, track_complete once its hook has returned), so this is exact
  // even while jobs hop between pools on failover — a queue-emptiness scan
  // could observe "all idle" mid-hop.
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void Scheduler::shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    // Close and collect under the lock, join outside it: nothing a worker
    // or a payload does while finishing its last attempt may wait on a
    // lock that is held across the join. add_pool refuses from here on.
    std::vector<std::thread> threads;
    std::vector<Pool*> pools;
    {
      std::lock_guard lock(pools_mutex_);
      for (auto& [kind, pool] : pools_) {
        pool->queue.close();
        for (auto& thread : pool->threads) threads.push_back(std::move(thread));
        pools.push_back(pool.get());
      }
    }
    for (auto& thread : threads) thread.join();
    // Workers are gone; whatever stayed queued is completed, not executed.
    // add_pool refuses from here on, so `pools` is the whole set, and the
    // flushed jobs' hooks run without pools_mutex_ (no hook ever runs
    // under a scheduler lock). flush() hands the leftovers back in queue
    // (priority, then FIFO) order, so the ok=false completions are
    // deterministic.
    for (Pool* pool : pools) {
      for (auto& item : pool->queue.flush())
        complete_unrun(std::move(item), "flushed at shutdown", "sched.flushed",
                       core::JobDisposition::kFlushed);
      telemetry::gauge(pool->depth_gauge, 0.0);
    }
  });
}

bool Scheduler::has_pool(core::AcceleratorKind kind) const {
  return pool_of(kind) != nullptr;
}

std::size_t Scheduler::queue_depth(core::AcceleratorKind kind) const {
  return find_pool(kind)->queue.size();
}

PoolStats Scheduler::stats(core::AcceleratorKind kind) const {
  return snapshot_pool(*find_pool(kind));
}

PoolStats Scheduler::snapshot_pool(const Pool& pool) {
  PoolStats s;
  s.workers = pool.replicas.size();
  s.queue_depth = pool.queue.size();
  s.queue_capacity = pool.queue.capacity();
  s.in_flight = pool.queue.in_flight();
  for (const auto& replica : pool.replicas) {
    s.jobs_completed += replica->jobs_completed();
    s.busy_seconds += replica->busy_seconds();
  }
  s.replicas.reserve(pool.workers.size());
  for (std::size_t i = 0; i < pool.workers.size(); ++i) {
    ReplicaHealth h = pool.workers[i]->breaker.snapshot();
    h.replica = i;
    if (h.state != BreakerState::kClosed) ++s.breakers_open;
    s.replicas.push_back(h);
  }
  return s;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.accepting = accepting();
  s.submitted = next_seq_.load(std::memory_order_relaxed);
  s.slices = slices_.load(std::memory_order_relaxed);
  s.preempts = preempts_.load(std::memory_order_relaxed);
  s.resumes = resumes_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  s.memo_riders = memo_riders_.load(std::memory_order_relaxed);
  {
    std::lock_guard lock(drain_mutex_);
    s.outstanding = outstanding_;
  }
  std::lock_guard lock(pools_mutex_);
  for (const auto& [kind, pool] : pools_) s.pools.emplace(kind, snapshot_pool(*pool));
  return s;
}

std::vector<ReplicaHealth> Scheduler::health(
    core::AcceleratorKind kind) const {
  const Pool* pool = find_pool(kind);
  std::vector<ReplicaHealth> out;
  out.reserve(pool->workers.size());
  for (std::size_t i = 0; i < pool->workers.size(); ++i) {
    ReplicaHealth h = pool->workers[i]->breaker.snapshot();
    h.replica = i;
    out.push_back(h);
  }
  return out;
}

std::string Scheduler::describe() const {
  std::ostringstream os;
  std::lock_guard lock(pools_mutex_);
  os << "Scheduler with " << pools_.size() << " worker pool(s), queues of "
     << config_.queue_capacity << " (" << to_string(config_.backpressure)
     << " backpressure):\n";
  for (const auto& [kind, pool] : pools_) {
    std::size_t jobs = 0;
    core::Real busy = 0.0;
    for (const auto& replica : pool->replicas) {
      jobs += replica->jobs_completed();
      busy += replica->busy_seconds();
    }
    os << "  [" << core::to_string(kind) << "] " << pool->replicas.size()
       << " x " << pool->replicas.front()->name() << " — " << jobs
       << " job(s), " << busy << " s busy, " << pool->queue.size()
       << " queued\n";
    // The Fig. 2 stack of this kind, top (application) to bottom (device).
    const auto layers = pool->replicas.front()->stack_layers();
    for (std::size_t i = 0; i < layers.size(); ++i)
      os << "      L" << (layers.size() - i) << ": " << layers[i] << '\n';
  }
  return os.str();
}

}  // namespace rebooting::sched
