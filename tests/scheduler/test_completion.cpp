// CompletionHook — the scheduler's one completion path (job.h, DESIGN.md §7).
// Every way a job settles calls the hook of its submit exactly once: executed
// or failed after its retries, thrown, rejected, shed, cancelled or expired
// at dequeue, a memo hit or rider, a failover hop, a sliced job, and a flush
// at shutdown. Each hook sees what the future path reports, on the thread the
// scheduler documents, with no scheduler lock held; drain() waits for it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/cache.h"
#include "memcomputing/accelerator.h"
#include "scheduler/scheduler.h"
#include "support/watchdog.h"
#include "telemetry/telemetry.h"

namespace rebooting::sched {
namespace {

using namespace std::chrono_literals;
using core::AcceleratorKind;
using core::JobDisposition;
using core::JobResult;
using test_support::Watchdog;

JobResult result_of(bool ok, std::string summary) {
  JobResult r;
  r.ok = ok;
  r.summary = std::move(summary);
  return r;
}

DevicePayload returning(bool ok, std::string summary = "ran") {
  return [ok, summary](core::Accelerator&) { return result_of(ok, summary); };
}

/// Records the calls of one submission's hook. Declare it before the
/// scheduler: hooks may run in the scheduler's destructor.
class Probe {
 public:
  /// The hook to submit with. Given a scheduler, the hook first reads its
  /// stats(), which takes the pool-map and drain locks: a hook run under a
  /// scheduler lock deadlocks there.
  CompletionHook hook(Scheduler* reads = nullptr) {
    return [this, reads](JobResult result, std::exception_ptr thrown) {
      if (reads) (void)reads->stats();
      std::lock_guard lock(mutex_);
      ++calls_;
      thread_ = std::this_thread::get_id();
      result_ = std::move(result);
      thrown_ = std::move(thrown);
      cv_.notify_all();
    };
  }

  int calls() {
    std::lock_guard lock(mutex_);
    return calls_;
  }
  /// Waits up to 10 s for the first call; the outcome it delivered.
  const JobResult& result() {
    wait();
    return result_;
  }
  std::exception_ptr thrown() {
    wait();
    return thrown_;
  }
  std::thread::id thread() {
    wait();
    return thread_;
  }

 private:
  void wait() {
    std::unique_lock lock(mutex_);
    ASSERT_TRUE(cv_.wait_for(lock, 10s, [this] { return calls_ > 0; }))
        << "hook never called";
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  int calls_ = 0;
  std::thread::id thread_;
  JobResult result_;
  std::exception_ptr thrown_;
};

/// A one-worker CPU pool whose worker is parked on a gate, so every job
/// submitted meanwhile stays queued.
class ParkedWorker {
 public:
  explicit ParkedWorker(Scheduler& scheduler) : scheduler_(scheduler) {
    scheduler_.submit("parker", AcceleratorKind::kClassicalCpu,
                      [this](core::Accelerator&) {
                        entered_.count_down();
                        gate_.wait();
                        return result_of(true, "parked");
                      },
                      {}, parker.hook());
    entered_.wait();
  }
  /// Releases the worker and waits for the parked job's hook, which
  /// writes to `parker`.
  ~ParkedWorker() {
    release();
    (void)parker.result();
  }
  void release() {
    if (!released_.exchange(true)) gate_.count_down();
  }

  Probe parker;

 private:
  Scheduler& scheduler_;
  std::latch entered_{1};
  std::latch gate_{1};
  std::atomic<bool> released_{false};
};

SchedulerConfig bounded(BackpressurePolicy policy) {
  SchedulerConfig config;
  config.queue_capacity = 1;
  config.backpressure = policy;
  return config;
}

JobOptions memo(const char* key) {
  JobOptions opts;
  opts.memo_key = key;
  return opts;
}

Scheduler& with_cpu_pool(Scheduler& scheduler, std::size_t workers = 1) {
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, workers,
                     core::CpuAccelerator::factory());
  return scheduler;
}

TEST(CompletionHook, NullHookIsRejected) {
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  EXPECT_THROW(scheduler.submit("x", AcceleratorKind::kClassicalCpu,
                                returning(true), {}, CompletionHook{}),
               std::invalid_argument);
  const PreemptiblePayload sliced = [](core::Accelerator&, const YieldProbe&) {
    return std::optional<JobResult>(result_of(true, "x"));
  };
  EXPECT_THROW(scheduler.submit_preemptible("x", AcceleratorKind::kClassicalCpu,
                                            sliced, {}, CompletionHook{}),
               std::invalid_argument);
}

TEST(CompletionHook, ExecutedJobCallsItsHookOnceOnAWorker) {
  Probe probe;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  scheduler.submit("ok", AcceleratorKind::kClassicalCpu, returning(true), {},
                   probe.hook());
  scheduler.drain();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_TRUE(probe.result().ok);
  EXPECT_EQ(probe.result().summary, "ran");
  EXPECT_EQ(probe.result().disposition, JobDisposition::kExecuted);
  EXPECT_EQ(probe.result().attempts, 1u);
  EXPECT_EQ(probe.thrown(), nullptr);
  EXPECT_NE(probe.thread(), std::this_thread::get_id());
}

TEST(CompletionHook, JobThatFailsEveryRetryReportsItsAttempts) {
  Probe probe;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  JobOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff = 100us;
  opts.retry.max_backoff = 1ms;
  scheduler.submit("failing", AcceleratorKind::kClassicalCpu,
                   returning(false, "device says no"), opts, probe.hook());
  scheduler.drain();
  EXPECT_EQ(probe.calls(), 1);
  const JobResult& r = probe.result();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.summary, "device says no");
  EXPECT_EQ(r.disposition, JobDisposition::kExecuted);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.fault_log.size(), 3u);
}

TEST(CompletionHook, ThrownExceptionIsDelivered) {
  Probe probe;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  scheduler.submit("thrower", AcceleratorKind::kClassicalCpu,
                   [](core::Accelerator&) -> JobResult {
                     throw std::runtime_error("boom");
                   },
                   {}, probe.hook());
  scheduler.drain();
  EXPECT_EQ(probe.calls(), 1);
  ASSERT_NE(probe.thrown(), nullptr);
  try {
    std::rethrow_exception(probe.thrown());
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(CompletionHook, RejectionRunsTheHookInsideSubmit) {
  Probe queued, rejected;
  Scheduler scheduler(bounded(BackpressurePolicy::kReject));
  with_cpu_pool(scheduler);
  ParkedWorker parked(scheduler);
  scheduler.submit("queued", AcceleratorKind::kClassicalCpu, returning(true),
                   {}, queued.hook());
  scheduler.submit("rejected", AcceleratorKind::kClassicalCpu,
                   returning(true), {}, rejected.hook(&scheduler));
  // Settled on this thread before submit returned.
  EXPECT_EQ(rejected.calls(), 1);
  EXPECT_EQ(rejected.thread(), std::this_thread::get_id());
  EXPECT_FALSE(rejected.result().ok);
  EXPECT_EQ(rejected.result().disposition, JobDisposition::kRejected);
  EXPECT_EQ(queued.calls(), 0);
  parked.release();
  scheduler.drain();
  EXPECT_EQ(queued.calls(), 1);
  EXPECT_TRUE(queued.result().ok);
  EXPECT_EQ(rejected.calls(), 1);
}

TEST(CompletionHook, ShedVictimsHookRunsInsideTheEvictingSubmit) {
  Probe victim, newcomer;
  Scheduler scheduler(bounded(BackpressurePolicy::kShedOldest));
  with_cpu_pool(scheduler);
  ParkedWorker parked(scheduler);
  scheduler.submit("victim", AcceleratorKind::kClassicalCpu, returning(true),
                   {}, victim.hook());
  scheduler.submit("newcomer", AcceleratorKind::kClassicalCpu,
                   returning(true), {}, newcomer.hook());
  EXPECT_EQ(victim.calls(), 1);
  EXPECT_EQ(victim.thread(), std::this_thread::get_id());
  EXPECT_FALSE(victim.result().ok);
  EXPECT_EQ(victim.result().disposition, JobDisposition::kShed);
  parked.release();
  scheduler.drain();
  EXPECT_EQ(newcomer.calls(), 1);
  EXPECT_TRUE(newcomer.result().ok);
  EXPECT_EQ(victim.calls(), 1);
}

TEST(CompletionHook, CancelledAndExpiredJobsSettleAtDequeue) {
  Probe cancelled, expired;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  ParkedWorker parked(scheduler);
  std::atomic<int> runs{0};
  const DevicePayload counted = [&runs](core::Accelerator&) {
    ++runs;
    return result_of(true, "ran");
  };
  JobOptions cancel_opts;
  CancelToken token;
  cancel_opts.cancel = token;
  scheduler.submit("cancelled", AcceleratorKind::kClassicalCpu, counted,
                   cancel_opts, cancelled.hook());
  JobOptions deadline_opts;
  deadline_opts.deadline = deadline_in(1ms);
  scheduler.submit("expired", AcceleratorKind::kClassicalCpu, counted,
                   deadline_opts, expired.hook());
  token.cancel();
  std::this_thread::sleep_for(5ms);
  parked.release();
  scheduler.drain();
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(cancelled.calls(), 1);
  EXPECT_EQ(cancelled.result().disposition, JobDisposition::kCancelled);
  EXPECT_FALSE(cancelled.result().ok);
  EXPECT_NE(cancelled.thread(), std::this_thread::get_id());
  EXPECT_EQ(expired.calls(), 1);
  EXPECT_EQ(expired.result().disposition, JobDisposition::kDeadlineMissed);
  EXPECT_FALSE(expired.result().ok);
}

TEST(CompletionHook, MemoHitRunsTheHookInsideSubmitOnTheCallersThread) {
  const bool cache_was = core::cache_enabled();
  core::set_cache_enabled(true);
  Probe first, hit;
  {
    Scheduler scheduler;
    with_cpu_pool(scheduler);
    const JobOptions opts = memo("completion-hit");
    scheduler.submit("first", AcceleratorKind::kClassicalCpu,
                     returning(true, "cached"), opts, first.hook());
    scheduler.drain();
    ASSERT_TRUE(first.result().ok);
    scheduler.submit("hit", AcceleratorKind::kClassicalCpu,
                     returning(false, "must not run"), opts, hit.hook());
    EXPECT_EQ(hit.calls(), 1);
    EXPECT_EQ(hit.thread(), std::this_thread::get_id());
    EXPECT_TRUE(hit.result().ok);
    EXPECT_EQ(hit.result().summary, "cached");
    EXPECT_EQ(scheduler.stats().memo_hits, 1u);
  }
  EXPECT_EQ(hit.calls(), 1);
  core::set_cache_enabled(cache_was);
}

TEST(CompletionHook, MemoRiderHonoursItsOwnCancelAtDelivery) {
  const bool cache_was = core::cache_enabled();
  core::set_cache_enabled(true);
  Probe leader, rider;
  {
    Scheduler scheduler;
    with_cpu_pool(scheduler, 2);
    std::latch entered{1}, gate{1};
    const DevicePayload gated = [&](core::Accelerator&) {
      entered.count_down();
      gate.wait();
      return result_of(true, "led");
    };
    scheduler.submit("leader", AcceleratorKind::kClassicalCpu, gated,
                     memo("completion-rider"), leader.hook());
    entered.wait();
    JobOptions rider_opts = memo("completion-rider");
    CancelToken token;
    rider_opts.cancel = token;
    scheduler.submit("rider", AcceleratorKind::kClassicalCpu, gated,
                     rider_opts, rider.hook());
    EXPECT_EQ(scheduler.stats().memo_riders, 1u);
    token.cancel();
    gate.count_down();
    scheduler.drain();
    EXPECT_EQ(leader.calls(), 1);
    EXPECT_TRUE(leader.result().ok);
    EXPECT_EQ(rider.calls(), 1);
    EXPECT_FALSE(rider.result().ok);
    EXPECT_EQ(rider.result().disposition, JobDisposition::kCancelled);
  }
  EXPECT_EQ(rider.calls(), 1);
  core::set_cache_enabled(cache_was);
}

TEST(CompletionHook, FailoverHopCallsTheHookOnce) {
  Probe probe;
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  with_cpu_pool(scheduler);
  JobOptions opts;
  opts.retry.cpu_fallback = true;
  scheduler.submit("hop", AcceleratorKind::kMemcomputing,
                   [](core::Accelerator& acc) {
                     return acc.kind() == AcceleratorKind::kMemcomputing
                                ? result_of(false, "device")
                                : result_of(true, "on cpu");
                   },
                   opts, probe.hook());
  scheduler.drain();
  EXPECT_EQ(probe.calls(), 1);
  const JobResult& r = probe.result();
  EXPECT_TRUE(r.ok) << r.summary;
  EXPECT_EQ(r.summary, "on cpu");
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.attempts, 2u);
  ASSERT_EQ(r.fault_log.size(), 2u);
  EXPECT_NE(r.fault_log[1].find("failing over"), std::string::npos);
}

TEST(CompletionHook, SlicedJobCallsItsHookOnceAfterItsYields) {
  Probe probe;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  int slices = 0;
  scheduler.submit_preemptible(
      "sliced", AcceleratorKind::kClassicalCpu,
      [&slices](core::Accelerator&,
                const YieldProbe&) -> std::optional<JobResult> {
        if (++slices < 3) return std::nullopt;  // yield twice, then finish
        return result_of(true, "sliced");
      },
      {}, probe.hook());
  scheduler.drain();
  EXPECT_EQ(slices, 3);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_TRUE(probe.result().ok);
  EXPECT_EQ(probe.result().summary, "sliced");
  EXPECT_EQ(probe.result().attempts, 1u);
  EXPECT_EQ(scheduler.stats().preempts, 2u);
}

// Flushed jobs settle on the thread that calls shutdown(), with no
// scheduler lock held: each hook here reads stats() first, which would
// deadlock under the pool-map lock. One of them is a retry waiting out a
// 10-minute backoff; it keeps its attempt and fault log.
TEST(CompletionHook, ShutdownFlushesOnTheCallingThreadWithNoLockHeld) {
  Watchdog watchdog(20s, "shutdown's flush");
  Probe retrying, queued, running;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  JobOptions backoff;
  backoff.retry.max_attempts = 2;
  backoff.retry.initial_backoff = 10min;
  backoff.retry.max_backoff = 10min;
  std::latch failed{1};
  scheduler.submit("retrying", AcceleratorKind::kClassicalCpu,
                   [&failed](core::Accelerator&) {
                     failed.count_down();
                     return result_of(false, "transient");
                   },
                   backoff, retrying.hook(&scheduler));
  failed.wait();
  std::latch entered{1};
  scheduler.submit("running", AcceleratorKind::kClassicalCpu,
                   [&](core::Accelerator&) {
                     entered.count_down();
                     while (scheduler.accepting())
                       std::this_thread::sleep_for(1ms);
                     return result_of(true, "finished");
                   },
                   {}, running.hook(&scheduler));
  entered.wait();
  scheduler.submit("queued", AcceleratorKind::kClassicalCpu, returning(true),
                   {}, queued.hook(&scheduler));

  scheduler.shutdown();
  EXPECT_EQ(running.calls(), 1);
  EXPECT_TRUE(running.result().ok);
  for (Probe* flushed : {&retrying, &queued}) {
    EXPECT_EQ(flushed->calls(), 1);
    EXPECT_EQ(flushed->thread(), std::this_thread::get_id());
    EXPECT_FALSE(flushed->result().ok);
    EXPECT_EQ(flushed->result().disposition, JobDisposition::kFlushed);
  }
  EXPECT_EQ(retrying.result().attempts, 1u);
  EXPECT_EQ(retrying.result().fault_log.size(), 1u);
  EXPECT_EQ(queued.result().attempts, 0u);
}

// A hook that throws anyway is counted, and the job still settles: drain()
// returns and the worker serves the next job.
TEST(CompletionHook, ThrowingHookIsCountedAndTheJobStillSettles) {
  const bool telemetry_was = telemetry::Telemetry::enabled();
  telemetry::Telemetry::set_enabled(true);
  const double before = telemetry::Telemetry::instance().metrics().counter(
      "sched.hook_exceptions");
  Probe next;
  Scheduler scheduler;
  with_cpu_pool(scheduler);
  scheduler.submit("thrower", AcceleratorKind::kClassicalCpu,
                   returning(true), {}, [](JobResult, std::exception_ptr) {
                     throw std::runtime_error("hook broke its contract");
                   });
  scheduler.submit("next", AcceleratorKind::kClassicalCpu, returning(true),
                   {}, next.hook());
  scheduler.drain();
  EXPECT_EQ(next.calls(), 1);
  EXPECT_EQ(scheduler.stats().outstanding, 0u);
  EXPECT_EQ(telemetry::Telemetry::instance().metrics().counter(
                "sched.hook_exceptions"),
            before + 1.0);
  telemetry::Telemetry::set_enabled(telemetry_was);
}

// drain() is exact at the hook: it returns only once every hook of the jobs
// it waited for has returned, however long the hooks take.
TEST(CompletionHook, DrainReturnsOnlyAfterTheLastHookReturned) {
  Scheduler scheduler;
  with_cpu_pool(scheduler, 2);
  constexpr int kJobs = 8;
  std::atomic<int> returned{0};
  for (int i = 0; i < kJobs; ++i)
    scheduler.submit("slow-hook", AcceleratorKind::kClassicalCpu,
                     returning(true), {},
                     [&returned](JobResult, std::exception_ptr) {
                       std::this_thread::sleep_for(20ms);
                       returned.fetch_add(1);
                     });
  scheduler.drain();
  EXPECT_EQ(returned.load(), kJobs);
  EXPECT_EQ(scheduler.stats().outstanding, 0u);
}

}  // namespace
}  // namespace rebooting::sched
