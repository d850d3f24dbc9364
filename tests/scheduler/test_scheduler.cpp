// Scheduler test suite: queue ordering (FIFO within a priority class,
// priority over queue order), the three backpressure policies, deadline
// expiry, cooperative cancellation, drain-vs-shutdown semantics, telemetry
// wiring, worker pinning, and a multi-producer stress test. The whole binary
// is expected to pass under REBOOTING_SANITIZE=thread (the CI TSan job runs
// exactly this suite).
#include "scheduler/scheduler.h"

#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "oscillator/comparator.h"
#include "scheduler/queue.h"
#include "telemetry/telemetry.h"

namespace rebooting::sched {
namespace {

using namespace std::chrono_literals;
using core::AcceleratorKind;

core::JobResult ok_result(std::string summary = "ok") {
  core::JobResult r;
  r.ok = true;
  r.summary = std::move(summary);
  return r;
}

core::Job cpu_job(std::string name, std::function<core::JobResult()> fn) {
  return core::Job{std::move(name), AcceleratorKind::kClassicalCpu,
                   std::move(fn)};
}

/// `prefix` followed by `n`. Appended, because GCC 12 at -O3 reports a false
/// -Wrestrict for `"p" + std::to_string(n)` at some call sites here.
std::string numbered(std::string prefix, int n) {
  return prefix.append(std::to_string(n));
}

bool ready(const std::future<core::JobResult>& f) {
  return f.wait_for(0s) == std::future_status::ready;
}

JobOptions with_priority(int p) {
  JobOptions opts;
  opts.priority = p;
  return opts;
}

JobOptions with_deadline(Clock::time_point d) {
  JobOptions opts;
  opts.deadline = d;
  return opts;
}

JobOptions with_cancel(CancelToken token) {
  JobOptions opts;
  opts.cancel = std::move(token);
  return opts;
}

/// A scheduler with one single-worker CPU pool whose first job parks on the
/// gate; `entered` confirms the worker picked it up, so everything submitted
/// afterwards is guaranteed to still be queued. The latches are declared
/// before (and the destructor opens the gate ahead of) the scheduler, so an
/// early test exit still tears down cleanly: gate opens, workers join, and
/// only then do the latches die.
class BlockedPool {
 public:
  explicit BlockedPool(SchedulerConfig config) : scheduler(config) {
    scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    blocker = scheduler.submit(cpu_job("blocker", [this] {
      entered.count_down();
      gate_.wait();
      return ok_result("unblocked");
    }));
    entered.wait();
  }

  ~BlockedPool() { open_gate(); }

  void open_gate() {
    if (!opened_.exchange(true)) gate_.count_down();
  }

 private:
  std::latch gate_{1};
  std::atomic<bool> opened_{false};

 public:
  std::latch entered{1};
  Scheduler scheduler;
  std::future<core::JobResult> blocker;
};

TEST(SchedulerOrdering, FifoWithinPriorityClass) {
  BlockedPool pool({.queue_capacity = 16});
  std::mutex mutex;
  std::vector<std::string> order;
  std::vector<std::future<core::JobResult>> futures;
  for (const char* name : {"a", "b", "c"})
    futures.push_back(pool.scheduler.submit(cpu_job(name, [&, name] {
      std::lock_guard lock(mutex);
      order.push_back(name);
      return ok_result();
    })));
  pool.open_gate();
  pool.scheduler.drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SchedulerOrdering, PriorityOverridesSubmissionOrder) {
  BlockedPool pool({.queue_capacity = 16});
  std::mutex mutex;
  std::vector<std::string> order;
  auto track = [&](const char* name) {
    return cpu_job(name, [&, name] {
      std::lock_guard lock(mutex);
      order.push_back(name);
      return ok_result();
    });
  };
  auto low = pool.scheduler.submit(track("low"), with_priority(0));
  auto mid = pool.scheduler.submit(track("mid"), with_priority(3));
  auto high = pool.scheduler.submit(track("high"), with_priority(7));
  pool.open_gate();
  pool.scheduler.drain();
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
  EXPECT_TRUE(low.get().ok && mid.get().ok && high.get().ok);
}

TEST(SchedulerBackpressure, RejectCompletesNewcomerWithoutRunningIt) {
  BlockedPool pool({.queue_capacity = 1,
                    .backpressure = BackpressurePolicy::kReject});
  auto queued = pool.scheduler.submit(cpu_job("queued", [] {
    return ok_result();
  }));
  std::atomic<bool> ran{false};
  auto rejected = pool.scheduler.submit(cpu_job("rejected", [&] {
    ran = true;
    return ok_result();
  }));
  ASSERT_TRUE(ready(rejected));  // completed synchronously, never queued
  const auto result = rejected.get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.summary.find("rejected"), std::string::npos);
  pool.open_gate();
  pool.scheduler.drain();
  EXPECT_TRUE(queued.get().ok);
  EXPECT_FALSE(ran.load());
}

TEST(SchedulerBackpressure, ShedOldestEvictsLongestWaitingJob) {
  BlockedPool pool({.queue_capacity = 2,
                    .backpressure = BackpressurePolicy::kShedOldest});
  auto j1 = pool.scheduler.submit(cpu_job("j1", [] { return ok_result(); }));
  auto j2 = pool.scheduler.submit(cpu_job("j2", [] { return ok_result(); }));
  auto j3 = pool.scheduler.submit(cpu_job("j3", [] { return ok_result(); }));
  ASSERT_TRUE(ready(j1));  // j1 was the oldest queued entry
  const auto shed = j1.get();
  EXPECT_FALSE(shed.ok);
  EXPECT_NE(shed.summary.find("shed"), std::string::npos);
  pool.open_gate();
  pool.scheduler.drain();
  EXPECT_TRUE(j2.get().ok);
  EXPECT_TRUE(j3.get().ok);
}

TEST(SchedulerBackpressure, BlockWaitsForRoomAndRunsEverything) {
  BlockedPool pool({.queue_capacity = 1,
                    .backpressure = BackpressurePolicy::kBlock});
  std::vector<std::future<core::JobResult>> futures;
  std::thread producer([&] {
    for (int i = 0; i < 3; ++i)  // second submit blocks until the gate opens
      futures.push_back(pool.scheduler.submit(
          cpu_job(numbered("p", i), [] { return ok_result(); })));
  });
  std::this_thread::sleep_for(10ms);
  pool.open_gate();
  producer.join();
  pool.scheduler.drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  EXPECT_TRUE(pool.blocker.get().ok);
}

TEST(SchedulerDeadline, ExpiredJobCompletesWithoutExecuting) {
  BlockedPool pool({.queue_capacity = 16});
  std::atomic<bool> ran{false};
  auto doomed = pool.scheduler.submit(cpu_job("doomed",
                                              [&] {
                                                ran = true;
                                                return ok_result();
                                              }),
                                      with_deadline(deadline_in(1ms)));
  std::this_thread::sleep_for(20ms);  // let the deadline lapse while queued
  pool.open_gate();
  pool.scheduler.drain();
  const auto result = doomed.get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.summary.find("deadline"), std::string::npos);
  EXPECT_FALSE(ran.load());
}

TEST(SchedulerCancel, CancelledWhileQueuedNeverRuns) {
  BlockedPool pool({.queue_capacity = 16});
  std::atomic<bool> ran{false};
  CancelToken token;
  auto cancelled = pool.scheduler.submit(cpu_job("cancelled",
                                                 [&] {
                                                   ran = true;
                                                   return ok_result();
                                                 }),
                                         with_cancel(token));
  token.cancel();
  pool.open_gate();
  pool.scheduler.drain();
  const auto result = cancelled.get();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.summary.find("cancelled"), std::string::npos);
  EXPECT_FALSE(ran.load());
}

TEST(SchedulerCancel, PayloadCanPollTokenMidExecution) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  CancelToken token;
  std::latch running{1};
  auto f = scheduler.submit(cpu_job("cooperative", [&] {
    running.count_down();
    while (!token.cancelled()) std::this_thread::sleep_for(1ms);
    core::JobResult r;
    r.ok = false;
    r.summary = "stopped cooperatively";
    return r;
  }));
  running.wait();
  token.cancel();
  const auto result = f.get();
  EXPECT_EQ(result.summary, "stopped cooperatively");
}

TEST(SchedulerLifecycle, DrainIsABarrierNotAShutdown) {
  Scheduler scheduler({.queue_capacity = 64});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(scheduler.submit(cpu_job(numbered("j", i), [] {
      std::this_thread::sleep_for(2ms);
      return ok_result();
    })));
  scheduler.drain();
  for (auto& f : futures) {
    ASSERT_TRUE(ready(f));  // drain returned only once everything finished
    EXPECT_TRUE(f.get().ok);
  }
  // Still accepting afterwards.
  auto after = scheduler.submit(cpu_job("after", [] { return ok_result(); }));
  scheduler.drain();
  EXPECT_TRUE(after.get().ok);
  EXPECT_EQ(scheduler.stats(AcceleratorKind::kClassicalCpu).jobs_completed,
            9u);
}

TEST(SchedulerLifecycle, ShutdownFinishesInFlightAndFlushesQueued) {
  BlockedPool pool({.queue_capacity = 16});
  auto q1 = pool.scheduler.submit(cpu_job("q1", [] { return ok_result(); }));
  auto q2 = pool.scheduler.submit(cpu_job("q2", [] { return ok_result(); }));
  auto q3 = pool.scheduler.submit(cpu_job("q3", [] { return ok_result(); }));
  std::thread closer([&] { pool.scheduler.shutdown(); });
  std::this_thread::sleep_for(10ms);  // shutdown is now waiting on the worker
  pool.open_gate();
  closer.join();
  EXPECT_TRUE(pool.blocker.get().ok);  // in-flight job finished normally
  for (auto* f : {&q1, &q2, &q3}) {
    ASSERT_TRUE(ready(*f));
    const auto result = f->get();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.summary.find("flushed"), std::string::npos);
  }
  EXPECT_EQ(pool.scheduler.stats(AcceleratorKind::kClassicalCpu).jobs_completed,
            1u);
  EXPECT_FALSE(pool.scheduler.accepting());
  EXPECT_THROW(
      pool.scheduler.submit(cpu_job("late", [] { return ok_result(); })),
      std::runtime_error);
}

TEST(SchedulerLifecycle, DestructorCompletesOutstandingFutures) {
  std::future<core::JobResult> running, queued;
  {
    Scheduler scheduler;
    scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    std::latch entered{1};
    running = scheduler.submit(cpu_job("running", [&entered] {
      entered.count_down();
      std::this_thread::sleep_for(5ms);
      return ok_result();
    }));
    queued = scheduler.submit(cpu_job("queued", [] { return ok_result(); }));
    entered.wait();
  }  // ~Scheduler: the in-flight job finishes, the queued one is flushed
  ASSERT_TRUE(ready(running));
  ASSERT_TRUE(ready(queued));
  EXPECT_TRUE(running.get().ok);
  EXPECT_FALSE(queued.get().ok);
}

TEST(SchedulerLifecycle, DestructorCompletesExpiredAndCancelledJobs) {
  // The nastier variant of DestructorCompletesOutstandingFutures: the queued
  // jobs hold an already-expired deadline AND an already-cancelled token when
  // the destructor flushes them. Whichever verdict wins, every future must
  // still complete — no promise may be abandoned.
  std::future<core::JobResult> running;
  std::vector<std::future<core::JobResult>> doomed;
  CancelToken token;
  {
    Scheduler scheduler;
    scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    std::latch entered{1};
    running = scheduler.submit(cpu_job("running", [&entered] {
      entered.count_down();
      std::this_thread::sleep_for(10ms);
      return ok_result();
    }));
    entered.wait();  // everything below stays queued behind this job
    JobOptions opts;
    opts.deadline = Clock::now() - 1ms;  // expired before it was even queued
    opts.cancel = token;
    for (int i = 0; i < 4; ++i)
      doomed.push_back(scheduler.submit(
          cpu_job("doomed" + std::to_string(i), [] { return ok_result(); }),
          opts));
    token.cancel();
  }  // ~Scheduler races the worker against the flush of the doomed jobs
  ASSERT_TRUE(ready(running));
  EXPECT_TRUE(running.get().ok);
  for (auto& f : doomed) {
    ASSERT_TRUE(ready(f));
    const auto r = f.get();
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.summary.empty());
    EXPECT_EQ(r.attempts, 0u);  // none of them may ever have executed
  }
}

TEST(SchedulerBatch, FanOutReturnsFuturesInSubmissionOrder) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  std::vector<core::Job> jobs;
  for (int i = 0; i < 10; ++i)
    jobs.push_back(cpu_job("batch" + std::to_string(i), [i] {
      auto r = ok_result("batch" + std::to_string(i));
      r.metrics["index"] = static_cast<core::Real>(i);
      return r;
    }));
  auto futures = scheduler.submit_batch(std::move(jobs));
  ASSERT_EQ(futures.size(), 10u);
  core::Real sum = 0.0;
  for (int i = 0; i < 10; ++i) {
    const auto result = futures[i].get();
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.summary, "batch" + std::to_string(i));
    sum += result.metrics.at("index");
  }
  EXPECT_DOUBLE_EQ(sum, 45.0);
}

TEST(SchedulerPools, DevicePayloadSeesDistinctReplicas) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  std::latch both_running{2};
  std::mutex mutex;
  std::vector<const core::Accelerator*> seen;
  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 2; ++i)
    futures.push_back(scheduler.submit(
        "replica" + std::to_string(i), AcceleratorKind::kClassicalCpu,
        [&](core::Accelerator& replica) {
          {
            std::lock_guard lock(mutex);
            seen.push_back(&replica);
          }
          both_running.arrive_and_wait();  // forces both workers concurrent
          return ok_result();
        }));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]);
}

TEST(SchedulerPools, ArgumentValidation) {
  Scheduler scheduler;
  EXPECT_THROW(scheduler.add_pool(AcceleratorKind::kClassicalCpu, 0,
                                  core::CpuAccelerator::factory()),
               std::invalid_argument);
  EXPECT_THROW(
      scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1, nullptr),
      std::invalid_argument);
  // Factory kind must match the pool kind.
  EXPECT_THROW(scheduler.add_pool(AcceleratorKind::kQuantum, 1,
                                  core::CpuAccelerator::factory()),
               std::invalid_argument);
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  EXPECT_THROW(scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                                  core::CpuAccelerator::factory()),
               std::invalid_argument);
  // No pool of the requested kind.
  EXPECT_THROW(scheduler.submit(core::Job{"nowhere",
                                          AcceleratorKind::kOscillator,
                                          [] { return core::JobResult{}; }}),
               std::out_of_range);
  // Null payload.
  EXPECT_THROW(
      scheduler.submit(core::Job{"empty", AcceleratorKind::kClassicalCpu, {}}),
      std::invalid_argument);
}

TEST(SchedulerPools, DescribeListsLayers) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  EXPECT_TRUE(scheduler.submit(cpu_job("probe", [] { return ok_result(); }))
                  .get()
                  .ok);
  const std::string desc = scheduler.describe();
  EXPECT_NE(desc.find("[classical-cpu] 2 x Classical CPU (host)"),
            std::string::npos)
      << desc;
  EXPECT_NE(desc.find("1 job(s)"), std::string::npos) << desc;
  // The kind's Fig. 2 stack, numbered from the application down to L1.
  const auto top = desc.find("L3: Application (host code)");
  const auto bottom = desc.find("L1: von Neumann CPU");
  ASSERT_NE(top, std::string::npos) << desc;
  ASSERT_NE(bottom, std::string::npos) << desc;
  EXPECT_LT(top, bottom);
}

TEST(SchedulerPools, PayloadExceptionPropagatesThroughFuture) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  auto f = scheduler.submit(cpu_job(
      "thrower", []() -> core::JobResult { throw std::runtime_error("boom"); }));
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker survived the exception and keeps serving.
  auto g = scheduler.submit(cpu_job("next", [] { return ok_result(); }));
  EXPECT_TRUE(g.get().ok);
}

TEST(SchedulerTelemetry, CountersGaugesAndHistogramsAreWired) {
  telemetry::Telemetry::set_enabled(true);
  telemetry::Telemetry::instance().reset();
  {
    BlockedPool pool({.queue_capacity = 16});
    auto late = pool.scheduler.submit(
        cpu_job("late", [] { return ok_result(); }),
        with_deadline(deadline_in(1ms)));
    std::this_thread::sleep_for(20ms);
    pool.open_gate();
    pool.scheduler.drain();
    for (int i = 0; i < 3; ++i)
      pool.scheduler
          .submit(cpu_job("t" + std::to_string(i), [] { return ok_result(); }))
          .wait();
    pool.scheduler.drain();
    late.wait();
  }
  const auto& metrics = telemetry::Telemetry::instance().metrics();
  EXPECT_DOUBLE_EQ(metrics.counter("sched.jobs"), 4.0);  // blocker + 3
  EXPECT_DOUBLE_EQ(metrics.counter("sched.jobs.classical-cpu"), 4.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.deadline_missed"), 1.0);
  EXPECT_GT(metrics.counter("sched.busy_seconds.classical-cpu"), 0.0);
  EXPECT_EQ(metrics.histogram("sched.wait_seconds").count, 5u);
  EXPECT_EQ(metrics.histogram("sched.service_seconds").count, 4u);
  EXPECT_EQ(metrics.histogram("sched.latency_seconds").count, 5u);
  ASSERT_TRUE(metrics.gauge("sched.queue_depth.classical-cpu").has_value());
  telemetry::Telemetry::instance().reset();
  telemetry::Telemetry::set_enabled(false);
}

TEST(SchedulerTelemetry, LatencySpansEveryYieldOfASlicedJob) {
  telemetry::Telemetry::set_enabled(true);
  telemetry::Telemetry::instance().reset();
  {
    Scheduler scheduler({.queue_capacity = 16});
    scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    // Four 10 ms slices, three of them ending in a yield: latency is the
    // whole job from submit, not the last slice after its re-enqueue.
    auto slices = std::make_shared<std::atomic<int>>(0);
    auto job = scheduler.submit_preemptible(
        "sliced", AcceleratorKind::kClassicalCpu,
        [slices](core::Accelerator&,
                 const YieldProbe&) -> std::optional<core::JobResult> {
          std::this_thread::sleep_for(10ms);
          if (slices->fetch_add(1) < 3) return std::nullopt;
          return ok_result();
        });
    EXPECT_TRUE(job.get().ok);
  }
  const auto& metrics = telemetry::Telemetry::instance().metrics();
  const auto latency = metrics.histogram("sched.latency_seconds");
  EXPECT_EQ(latency.count, 1u);
  EXPECT_GE(latency.max, 0.030);
  telemetry::Telemetry::instance().reset();
  telemetry::Telemetry::set_enabled(false);
}

// The satellite-mandated stress test: >= 4 producer threads, >= 1000 jobs,
// through a small bounded queue with blocking backpressure and 4 workers.
// Run under REBOOTING_SANITIZE=thread this exercises every lock and atomic
// in the queue, the scheduler, and the Accelerator counters.
TEST(SchedulerStats, SnapshotCoversEveryPoolAndInFlightWork) {
  SchedulerConfig config;
  config.queue_capacity = 8;
  BlockedPool pool(config);  // one cpu worker, parked on the blocker

  auto queued = pool.scheduler.submit(cpu_job("queued", [] {
    return ok_result();
  }));

  SchedulerStats snap = pool.scheduler.stats();
  EXPECT_TRUE(snap.accepting);
  EXPECT_EQ(snap.submitted, 2u);    // blocker + queued
  EXPECT_EQ(snap.outstanding, 2u);  // neither has completed
  ASSERT_TRUE(snap.pools.contains(AcceleratorKind::kClassicalCpu));
  const PoolStats& cpu = snap.pools.at(AcceleratorKind::kClassicalCpu);
  EXPECT_EQ(cpu.workers, 1u);
  EXPECT_EQ(cpu.queue_capacity, 8u);
  EXPECT_EQ(cpu.queue_depth, 1u);  // "queued" waits behind the blocker
  EXPECT_EQ(cpu.in_flight, 1u);    // the blocker is mid-execution
  ASSERT_EQ(cpu.replicas.size(), 1u);
  EXPECT_EQ(cpu.replicas[0].state, BreakerState::kClosed);
  EXPECT_EQ(cpu.breakers_open, 0u);

  pool.open_gate();
  pool.scheduler.drain();
  snap = pool.scheduler.stats();
  EXPECT_EQ(snap.outstanding, 0u);
  // drain() returns at promise completion, a hair before the worker's
  // task_done(); poll until the in-flight count settles.
  for (int i = 0; i < 100 &&
                  snap.pools.at(AcceleratorKind::kClassicalCpu).in_flight != 0;
       ++i) {
    std::this_thread::sleep_for(1ms);
    snap = pool.scheduler.stats();
  }
  const PoolStats& idle = snap.pools.at(AcceleratorKind::kClassicalCpu);
  EXPECT_EQ(idle.queue_depth, 0u);
  EXPECT_EQ(idle.in_flight, 0u);
  EXPECT_EQ(idle.jobs_completed, 2u);
  EXPECT_TRUE(queued.get().ok);

  pool.scheduler.shutdown();
  EXPECT_FALSE(pool.scheduler.stats().accepting);
}

TEST(SchedulerStats, DispositionsAreTyped) {
  // kReject backpressure -> kRejected on the refused job; a flushed job ->
  // kFlushed; an executed job keeps kExecuted.
  SchedulerConfig config;
  config.queue_capacity = 1;
  config.backpressure = BackpressurePolicy::kReject;
  BlockedPool pool(config);

  auto queued = pool.scheduler.submit(cpu_job("queued", [] {
    return ok_result();
  }));
  auto rejected = pool.scheduler.submit(cpu_job("rejected", [] {
    return ok_result();
  }));
  auto r = rejected.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.disposition, core::JobDisposition::kRejected);

  std::thread closer([&] { pool.scheduler.shutdown(); });
  std::this_thread::sleep_for(10ms);  // shutdown is now waiting on the worker
  pool.open_gate();
  closer.join();  // "queued" was flushed, the blocker finished normally
  auto q = queued.get();
  EXPECT_FALSE(q.ok);
  EXPECT_EQ(q.disposition, core::JobDisposition::kFlushed);
  auto b = pool.blocker.get();
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(b.disposition, core::JobDisposition::kExecuted);
}

TEST(SchedulerStress, MultiProducerMultiWorker) {
  constexpr int kProducers = 4;
  constexpr int kJobsPerProducer = 250;
  Scheduler scheduler({.queue_capacity = 32,
                       .backpressure = BackpressurePolicy::kBlock});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 4,
                     core::CpuAccelerator::factory());
  std::atomic<int> executed{0};
  std::mutex futures_mutex;
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(kProducers * kJobsPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kJobsPerProducer; ++i) {
        auto f = scheduler.submit(
            cpu_job(numbered(numbered("p", p) + ".", i),
                    [&executed] {
                      executed.fetch_add(1, std::memory_order_relaxed);
                      return ok_result();
                    }),
            with_priority(i % 3));
        std::lock_guard lock(futures_mutex);
        futures.push_back(std::move(f));
      }
    });
  for (auto& t : producers) t.join();
  scheduler.drain();
  EXPECT_EQ(executed.load(), kProducers * kJobsPerProducer);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  const auto stats = scheduler.stats(AcceleratorKind::kClassicalCpu);
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::size_t>(kProducers * kJobsPerProducer));
  EXPECT_EQ(stats.workers, 4u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// --- Preemptible jobs & time-slicing (DESIGN.md §12) -----------------------

TEST(SchedulerPreemption, PreemptibleJobRunsAcrossYields) {
  Scheduler scheduler({.queue_capacity = 16});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  // Three voluntary yields before completing: each nullopt re-enqueues the
  // remainder, each pickup counts as a resume.
  auto slices_done = std::make_shared<std::atomic<int>>(0);
  auto future = scheduler.submit_preemptible(
      "sliced", AcceleratorKind::kClassicalCpu,
      [slices_done](core::Accelerator&,
                    const YieldProbe&) -> std::optional<core::JobResult> {
        if (slices_done->fetch_add(1) < 3) return std::nullopt;
        return ok_result("finished after slices");
      });
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  const core::JobResult r = future.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(slices_done->load(), 4);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.slices, 4u);
  EXPECT_GE(stats.preempts, 3u);
  EXPECT_GE(stats.resumes, 3u);
}

TEST(SchedulerPreemption, HigherPriorityJobPreemptsRunningSlice) {
  Scheduler scheduler({.queue_capacity = 16});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());

  std::latch low_started{1};
  std::atomic<bool> high_done{false};
  std::mutex mutex;
  std::vector<std::string> order;

  // The low job spins inside one slice until the probe reports queued
  // higher-priority work, then parks at its "checkpoint". It can only
  // finish after the high job ran — so completion order proves preemption.
  auto low = scheduler.submit_preemptible(
      "low", AcceleratorKind::kClassicalCpu,
      [&](core::Accelerator&,
          const YieldProbe& probe) -> std::optional<core::JobResult> {
        low_started.count_down();
        const auto slice_start = Clock::now();
        while (!high_done.load()) {
          if (probe.should_yield()) return std::nullopt;
          if (Clock::now() - slice_start > 10s) {
            core::JobResult r;
            r.summary = "timed out waiting for preemption";
            return r;  // ok=false: fail the test instead of hanging it
          }
          std::this_thread::sleep_for(100us);
        }
        std::lock_guard lock(mutex);
        order.push_back("low");
        return ok_result();
      },
      with_priority(0));
  low_started.wait();

  auto high = scheduler.submit(cpu_job("high",
                                       [&] {
                                         {
                                           std::lock_guard lock(mutex);
                                           order.push_back("high");
                                         }
                                         high_done.store(true);
                                         return ok_result();
                                       }),
                               with_priority(5));
  ASSERT_EQ(high.wait_for(10s), std::future_status::ready);
  ASSERT_EQ(low.wait_for(10s), std::future_status::ready);
  EXPECT_TRUE(high.get().ok);
  EXPECT_TRUE(low.get().ok) << "low-priority slice never saw the preemption";
  EXPECT_EQ(order, (std::vector<std::string>{"high", "low"}));
  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.preempts, 1u);
  EXPECT_GE(stats.resumes, 1u);
  EXPECT_GE(stats.slices, 2u);
}

TEST(SchedulerPreemption, EqualPriorityDoesNotTriggerYield) {
  Scheduler scheduler({.queue_capacity = 16});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::latch started{1};
  std::latch release{1};
  auto first = scheduler.submit_preemptible(
      "first", AcceleratorKind::kClassicalCpu,
      [&](core::Accelerator&,
          const YieldProbe& probe) -> std::optional<core::JobResult> {
        started.count_down();
        release.wait();
        core::JobResult r;
        r.ok = !probe.should_yield();  // equal priority must not preempt
        return r;
      });
  started.wait();
  auto second = scheduler.submit(cpu_job("second", [] { return ok_result(); }));
  release.count_down();
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(second.get().ok);
  EXPECT_EQ(scheduler.stats().preempts, 0u);
}

// --- Worker pinning --------------------------------------------------------

#if defined(__linux__)
/// The CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  return cpus;
}

/// Whether this process may narrow a thread's affinity (some sandboxes
/// refuse).
bool can_pin(int cpu) {
  bool pinned = false;
  std::thread probe([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  });
  probe.join();
  return pinned;
}

/// Each worker of `scheduler`'s CPU pool reports its affinity mask; all
/// `workers` jobs are held until every worker has taken one.
std::vector<std::vector<int>> worker_masks(Scheduler& scheduler,
                                           std::size_t workers) {
  std::latch all_in{static_cast<std::ptrdiff_t>(workers)};
  std::mutex mutex;
  std::vector<std::vector<int>> masks;
  std::vector<std::future<core::JobResult>> futures;
  for (std::size_t i = 0; i < workers; ++i)
    futures.push_back(scheduler.submit(cpu_job("mask", [&] {
      std::vector<int> mine = allowed_cpus();
      {
        std::lock_guard lock(mutex);
        masks.push_back(std::move(mine));
      }
      all_in.arrive_and_wait();
      return ok_result();
    })));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  return masks;
}

TEST(SchedulerPinning, EachWorkerRunsOnItsOwnCpu) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) GTEST_SKIP() << "needs two CPUs";
  if (!can_pin(cpus.front())) GTEST_SKIP() << "thread affinity refused";
  const std::size_t workers = std::min<std::size_t>(cpus.size(), 4);
  Scheduler scheduler({.pin_workers = true});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, workers,
                     core::CpuAccelerator::factory());

  // Worker k runs on the k-th allowed CPU and nowhere else.
  std::vector<int> pinned;
  for (const auto& mask : worker_masks(scheduler, workers)) {
    ASSERT_EQ(mask.size(), 1u);
    pinned.push_back(mask.front());
  }
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(pinned, std::vector<int>(cpus.begin(), cpus.begin() + workers));
}

TEST(SchedulerPinning, WorkersKeepTheProcessMaskByDefault) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  for (const auto& mask : worker_masks(scheduler, 2))
    EXPECT_EQ(mask, allowed_cpus());
}
#endif

// --- Work stealing between kind pools --------------------------------------

/// Counts a latch down when it goes out of scope, on every way out.
struct CountDownOnExit {
  std::latch& latch;
  ~CountDownOnExit() { latch.count_down(); }
};

TEST(SchedulerStealing, IdleWorkersStealStealableJobs) {
  // The latches outlive the scheduler, whose destructor joins the worker
  // that waits on them.
  std::latch entered{1};
  std::latch gate{1};
  Scheduler scheduler({.queue_capacity = 16, .work_stealing = true});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kOscillator, 1,
                     oscillator::OscillatorAccelerator::factory({}));

  // Wedge the CPU pool's only worker, then pile stealable work on its queue:
  // the idle oscillator worker must drain it.
  auto blocker = scheduler.submit(cpu_job("blocker", [&] {
    entered.count_down();
    gate.wait();
    return ok_result();
  }));
  entered.wait();

  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 4; ++i) {
    JobOptions opts;
    opts.stealable = true;
    futures.push_back(scheduler.submit(
        cpu_job("stealable" + std::to_string(i), [] { return ok_result(); }),
        opts));
  }
  {
    // A failed ASSERT returns from the test: the gate must open all the
    // same, or ~Scheduler joins the wedged CPU worker forever.
    const CountDownOnExit open_gate{gate};
    // All four must complete while the CPU worker is still wedged.
    for (auto& f : futures) {
      ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
      EXPECT_TRUE(f.get().ok);
    }
    EXPECT_FALSE(ready(blocker));
    EXPECT_GE(scheduler.stats().steals, 4u);
  }
  EXPECT_TRUE(blocker.get().ok);
  scheduler.drain();
  EXPECT_EQ(scheduler.stats(AcceleratorKind::kClassicalCpu).queue_depth, 0u);
}

long voluntary_context_switches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw;
}

TEST(SchedulerStealing, AnIdleLonePoolDoesNotPoll) {
  // Three workers polling every 2 ms would switch ~300 times in 200 ms.
  Scheduler scheduler({.work_stealing = true});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 3,
                     core::CpuAccelerator::factory());
  std::this_thread::sleep_for(50ms);  // the workers reach their first wait
  const long before = voluntary_context_switches();
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(voluntary_context_switches() - before, 30);
}

TEST(SchedulerStealing, APoolAddedLaterIsStolenFrom) {
  Scheduler scheduler({.queue_capacity = 16, .work_stealing = true});
  scheduler.add_pool(AcceleratorKind::kOscillator, 1,
                     oscillator::OscillatorAccelerator::factory({}));
  // Alone, the oscillator worker waits with no deadline; adding the CPU
  // pool must wake it to poll for a victim.
  std::this_thread::sleep_for(50ms);
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());

  std::latch entered{1};
  std::latch gate{1};
  auto blocker = scheduler.submit(cpu_job("blocker", [&] {
    entered.count_down();
    gate.wait();
    return ok_result();
  }));
  entered.wait();
  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 4; ++i) {
    JobOptions opts;
    opts.stealable = true;
    futures.push_back(scheduler.submit(
        cpu_job("stealable" + std::to_string(i), [] { return ok_result(); }),
        opts));
  }
  // All four must complete while the CPU worker is still wedged. The gate
  // opens either way, so a failure here cannot hang shutdown.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  for (auto& f : futures)
    EXPECT_EQ(f.wait_until(deadline), std::future_status::ready);
  EXPECT_FALSE(ready(blocker));
  EXPECT_GE(scheduler.stats().steals, 4u);
  gate.count_down();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
  EXPECT_TRUE(blocker.get().ok);
}

TEST(SchedulerStealing, NonStealableJobsStayOnTheirQueue) {
  Scheduler scheduler({.queue_capacity = 16, .work_stealing = true});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kOscillator, 1,
                     oscillator::OscillatorAccelerator::factory({}));

  std::latch entered{1};
  std::latch gate{1};
  auto blocker = scheduler.submit(cpu_job("blocker", [&] {
    entered.count_down();
    gate.wait();
    return ok_result();
  }));
  entered.wait();

  auto pinned =
      scheduler.submit(cpu_job("pinned", [] { return ok_result(); }));
  // Give the oscillator worker ample steal-poll cycles to (wrongly) grab it.
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(ready(pinned));
  EXPECT_EQ(scheduler.stats().steals, 0u);
  gate.count_down();
  EXPECT_TRUE(pinned.get().ok);
  EXPECT_TRUE(blocker.get().ok);
}

// --- BoundedJobQueue unit tests (no threads) -------------------------------

QueuedJob entry(std::uint64_t seq, int priority = 0) {
  QueuedJob item;
  item.name = "e" + std::to_string(seq);
  item.seq = seq;
  item.opts.priority = priority;
  item.payload = [](core::Accelerator&) { return core::JobResult{}; };
  return item;
}

TEST(BoundedJobQueue, PopsPriorityThenFifo) {
  BoundedJobQueue queue(8, BackpressurePolicy::kBlock);
  for (auto [seq, pri] :
       std::vector<std::pair<std::uint64_t, int>>{{0, 0}, {1, 2}, {2, 0}, {3, 2}}) {
    auto item = entry(seq, pri);
    ASSERT_EQ(queue.push(item, nullptr),
              BoundedJobQueue::PushStatus::kAccepted);
  }
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 4; ++i) {
    auto item = queue.pop();
    ASSERT_TRUE(item.has_value());
    order.push_back(item->seq);
    queue.task_done();
  }
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 0, 2}));
}

TEST(BoundedJobQueue, ShedOldestIgnoresPriority) {
  BoundedJobQueue queue(2, BackpressurePolicy::kShedOldest);
  auto a = entry(0, /*priority=*/9);  // oldest, though highest priority
  auto b = entry(1, 0);
  std::optional<QueuedJob> shed;
  ASSERT_EQ(queue.push(a, &shed), BoundedJobQueue::PushStatus::kAccepted);
  ASSERT_EQ(queue.push(b, &shed), BoundedJobQueue::PushStatus::kAccepted);
  auto c = entry(2, 0);
  ASSERT_EQ(queue.push(c, &shed), BoundedJobQueue::PushStatus::kAccepted);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->seq, 0u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedJobQueue, RejectLeavesItemIntact) {
  BoundedJobQueue queue(1, BackpressurePolicy::kReject);
  auto a = entry(0);
  ASSERT_EQ(queue.push(a, nullptr), BoundedJobQueue::PushStatus::kAccepted);
  auto b = entry(1);
  EXPECT_EQ(queue.push(b, nullptr), BoundedJobQueue::PushStatus::kRejected);
  EXPECT_EQ(b.name, "e1");  // not consumed
  EXPECT_EQ(queue.size(), 1u);
}

TEST(BoundedJobQueue, CloseStopsPopsAndFlushReturnsLeftoversInOrder) {
  BoundedJobQueue queue(8, BackpressurePolicy::kBlock);
  for (auto [seq, pri] :
       std::vector<std::pair<std::uint64_t, int>>{{0, 0}, {1, 5}, {2, 1}}) {
    auto item = entry(seq, pri);
    ASSERT_EQ(queue.push(item, nullptr),
              BoundedJobQueue::PushStatus::kAccepted);
  }
  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
  auto leftovers = queue.flush();
  ASSERT_EQ(leftovers.size(), 3u);
  EXPECT_EQ(leftovers[0].seq, 1u);  // priority 5 first
  EXPECT_EQ(leftovers[1].seq, 2u);
  EXPECT_EQ(leftovers[2].seq, 0u);
  auto late = entry(9);
  EXPECT_EQ(queue.push(late, nullptr), BoundedJobQueue::PushStatus::kClosed);
}

TEST(BoundedJobQueue, ZeroCapacityThrows) {
  EXPECT_THROW(BoundedJobQueue(0, BackpressurePolicy::kBlock),
               std::invalid_argument);
}

}  // namespace
}  // namespace rebooting::sched
