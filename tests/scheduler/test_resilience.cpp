// Chaos / resilience suite for the scheduler's fault-tolerant execution
// layer (DESIGN.md §10): retries with backoff, circuit breakers, failover to
// the classical-cpu pool, and graceful degradation — all driven by the
// deterministic core::FaultPlan, so every "storm" in here is bit-reproducible
// for a given seed at any worker count. The CI chaos matrix runs this binary
// under TSan with REBOOTING_CHAOS_SEED rotating through several seeds.
#include "scheduler/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <latch>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/faults.h"
#include "memcomputing/accelerator.h"
#include "memcomputing/dmm.h"
#include "memcomputing/sat.h"
#include "telemetry/telemetry.h"

namespace rebooting::sched {
namespace {

using namespace std::chrono_literals;
using core::AcceleratorKind;
using core::FaultPlan;
using core::FaultyAccelerator;

core::JobResult ok_result(std::string summary = "ok") {
  core::JobResult r;
  r.ok = true;
  r.summary = std::move(summary);
  return r;
}

core::JobResult bad_result(std::string summary = "bad") {
  core::JobResult r;
  r.ok = false;
  r.summary = std::move(summary);
  return r;
}

core::Job cpu_job(std::string name, std::function<core::JobResult()> fn) {
  return core::Job{std::move(name), AcceleratorKind::kClassicalCpu,
                   std::move(fn)};
}

bool ready(const std::future<core::JobResult>& f) {
  return f.wait_for(0s) == std::future_status::ready;
}

/// The chaos seed rotated by the CI matrix; 0 when unset.
std::uint64_t chaos_seed() {
  const char* env = std::getenv("REBOOTING_CHAOS_SEED");
  return env && *env ? std::strtoull(env, nullptr, 10) : 0;
}

std::shared_ptr<const FaultPlan> transient_plan(AcceleratorKind kind,
                                                std::uint64_t seed,
                                                core::Real p) {
  FaultPlan plan;
  plan.seed = seed;
  plan.kinds[kind].transient_probability = p;
  return std::make_shared<const FaultPlan>(plan);
}

/// Fast retries for tests: generous attempts, microscopic backoff.
JobOptions retrying(std::size_t max_attempts) {
  JobOptions opts;
  opts.retry.max_attempts = max_attempts;
  opts.retry.initial_backoff = 100us;
  opts.retry.max_backoff = 1ms;
  return opts;
}

/// The per-job outcome fingerprint the reproducibility tests compare.
struct Outcome {
  bool ok = false;
  std::size_t attempts = 0;
  std::vector<std::string> fault_log;

  bool operator==(const Outcome&) const = default;
};

/// One seeded storm: `jobs` always-succeeding payloads through a single
/// fault-injected CPU pool of `workers` replicas, submitted from one thread
/// so scheduler sequence numbers equal submission order.
std::vector<Outcome> run_storm(std::uint64_t seed, core::Real p,
                               std::size_t workers, std::size_t jobs,
                               std::size_t max_attempts) {
  Scheduler scheduler;
  scheduler.add_pool(
      AcceleratorKind::kClassicalCpu, workers,
      FaultyAccelerator::wrap(core::CpuAccelerator::factory(),
                              transient_plan(AcceleratorKind::kClassicalCpu,
                                             seed, p)));
  std::vector<std::future<core::JobResult>> futures;
  futures.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i)
    futures.push_back(scheduler.submit(
        cpu_job("storm-" + std::to_string(i), [] { return ok_result(); }),
        retrying(max_attempts)));
  std::vector<Outcome> outcomes;
  outcomes.reserve(jobs);
  for (auto& f : futures) {
    core::JobResult r = f.get();
    outcomes.push_back({r.ok, r.attempts, std::move(r.fault_log)});
  }
  return outcomes;
}

// -------------------------------------------------------------- retries ----

TEST(Retry, SucceedsAfterTransientPayloadFailures) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::atomic<int> calls{0};
  auto f = scheduler.submit(cpu_job("flaky",
                                    [&] {
                                      return ++calls < 3
                                                 ? bad_result("glitch")
                                                 : ok_result("third time");
                                    }),
                            retrying(5));
  const auto r = f.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.summary, "third time");
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_TRUE(r.degraded);
  ASSERT_EQ(r.fault_log.size(), 2u);
  EXPECT_NE(r.fault_log[0].find("glitch"), std::string::npos);
  EXPECT_EQ(calls.load(), 3);
}

TEST(Retry, ExhaustionReturnsTheLastPayloadResultVerbatim) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  auto f = scheduler.submit(
      cpu_job("doomed", [] { return bad_result("engine saturated"); }),
      retrying(3));
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.summary, "engine saturated");  // not a synthesized wrapper
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.fault_log.size(), 3u);
}

TEST(Retry, ExceptionRetriedThenSucceeds) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::atomic<int> calls{0};
  auto f = scheduler.submit(cpu_job("thrower",
                                    [&]() -> core::JobResult {
                                      if (++calls == 1)
                                        throw std::runtime_error("boom");
                                      return ok_result();
                                    }),
                            retrying(3));
  const auto r = f.get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.degraded);
  ASSERT_EQ(r.fault_log.size(), 1u);
  EXPECT_NE(r.fault_log[0].find("threw"), std::string::npos);
}

TEST(Retry, ExceptionOnFinalAttemptPropagates) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  auto f = scheduler.submit(cpu_job("always-throws",
                                    []() -> core::JobResult {
                                      throw std::runtime_error("boom");
                                    }),
                            retrying(2));
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Retry, BudgetCapsTimeSpentBackingOff) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  JobOptions opts;
  opts.retry.max_attempts = 10;
  opts.retry.initial_backoff = 5ms;
  opts.retry.backoff_multiplier = 1.0;  // constant 5 ms per retry
  opts.retry.retry_budget = 12ms;       // room for exactly two sleeps
  auto f = scheduler.submit(
      cpu_job("budgeted", [] { return bad_result("nope"); }), opts);
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3u);
  ASSERT_FALSE(r.fault_log.empty());
  EXPECT_NE(r.fault_log.back().find("retry budget"), std::string::npos);
}

TEST(Retry, BackoffThatWouldCrossTheDeadlineFailsInstead) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  JobOptions opts;
  opts.retry.max_attempts = 5;
  opts.retry.initial_backoff = 200ms;
  opts.deadline = deadline_in(50ms);
  const auto start = Clock::now();
  auto f = scheduler.submit(
      cpu_job("late-backoff", [] { return bad_result("nope"); }), opts);
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 1u);  // the 200 ms backoff was never slept
  EXPECT_LT(Clock::now() - start, 150ms);
  ASSERT_FALSE(r.fault_log.empty());
  EXPECT_NE(r.fault_log.back().find("deadline"), std::string::npos);
}

TEST(Retry, BackoffActuallyWaitsBetweenAttempts) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  JobOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff = 4ms;
  opts.retry.backoff_multiplier = 2.0;  // sleeps of ~4 ms then ~8 ms
  opts.retry.jitter = 0.25;
  const auto start = Clock::now();
  auto f = scheduler.submit(
      cpu_job("slow-burn", [] { return bad_result("nope"); }), opts);
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 3u);
  // Two jittered sleeps of at least 3 ms and 6 ms.
  EXPECT_GE(Clock::now() - start, 9ms);
}

TEST(Retry, CancellationBetweenAttemptsStopsTheJob) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  CancelToken token;
  JobOptions opts;
  opts.retry.max_attempts = 50;
  opts.retry.initial_backoff = 2ms;
  opts.retry.backoff_multiplier = 1.0;
  opts.cancel = token;
  std::atomic<int> calls{0};
  auto f = scheduler.submit(cpu_job("cancel-mid-retry",
                                    [&] {
                                      if (++calls == 2) token.cancel();
                                      return bad_result("nope");
                                    }),
                            opts);
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.summary.find("cancelled"), std::string::npos);
  EXPECT_LT(calls.load(), 5);
}

TEST(Retry, BackoffLeavesTheWorkerToOtherJobs) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::latch first_attempt{1};
  std::latch other_submitted{1};
  std::mutex mutex;
  std::vector<std::string> order;
  const auto log = [&](const char* what) {
    std::lock_guard lock(mutex);
    order.emplace_back(what);
  };
  JobOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = 50ms;
  std::atomic<int> calls{0};
  auto failing = scheduler.submit(cpu_job("failing",
                                          [&] {
                                            log("failing");
                                            if (calls++ == 0) {
                                              first_attempt.count_down();
                                              other_submitted.wait();
                                            }
                                            return bad_result("glitch");
                                          }),
                                  opts);
  first_attempt.wait();
  // Equal priority, submitted while the first attempt runs: it is ready
  // while the failing job waits out its 50 ms backoff, so it goes first.
  auto other = scheduler.submit(cpu_job("other", [&] {
    log("other");
    return ok_result();
  }));
  other_submitted.count_down();
  EXPECT_TRUE(other.get().ok);
  const auto r = failing.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_EQ(order,
            (std::vector<std::string>{"failing", "other", "failing"}));
}

TEST(Retry, FailoverCarriesTheLastFailureAndServiceTime) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  // Every CPU attempt faults before the payload runs, so the only payload
  // result the job ever produces is its device attempt's.
  scheduler.add_pool(
      AcceleratorKind::kClassicalCpu, 1,
      FaultyAccelerator::wrap(
          core::CpuAccelerator::factory(),
          transient_plan(AcceleratorKind::kClassicalCpu, 5, 1.0)));
  JobOptions opts;
  opts.retry.cpu_fallback = true;
  const auto r = scheduler
                     .submit("hop", AcceleratorKind::kMemcomputing,
                             [](core::Accelerator&) {
                               std::this_thread::sleep_for(20ms);
                               return bad_result("device says no");
                             },
                             opts)
                     .get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.summary, "device says no");  // verbatim across the hop
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GE(r.wall_seconds, 0.015);  // the device attempt's service time
  ASSERT_EQ(r.fault_log.size(), 3u);
  EXPECT_NE(r.fault_log[1].find("failing over"), std::string::npos);
  EXPECT_NE(r.fault_log[2].find("attempt 2: injected transient"),
            std::string::npos);
}

TEST(Retry, FailoverBypassesTheFallbackQueuesBackpressure) {
  std::latch entered{1};
  std::latch gate{1};
  Scheduler scheduler(
      {.queue_capacity = 1, .backpressure = BackpressurePolicy::kReject});
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  // Wedge the CPU worker, then fill its one-slot queue.
  auto blocker = scheduler.submit(cpu_job("blocker", [&] {
    entered.count_down();
    gate.wait();
    return ok_result();
  }));
  entered.wait();
  auto filler = scheduler.submit(cpu_job("filler", [] { return ok_result(); }));
  JobOptions opts;
  opts.retry.cpu_fallback = true;
  auto hop = scheduler.submit(
      "hop", AcceleratorKind::kMemcomputing,
      [](core::Accelerator& acc) {
        return acc.kind() == AcceleratorKind::kMemcomputing
                   ? bad_result("device")
                   : ok_result("on cpu");
      },
      opts);
  // Admission happened at submit; the hop joins the full CPU queue anyway.
  for (int i = 0; i < 2000 && !ready(hop) &&
                  scheduler.queue_depth(AcceleratorKind::kClassicalCpu) < 2;
       ++i)
    std::this_thread::sleep_for(1ms);
  gate.count_down();
  const auto r = hop.get();
  EXPECT_TRUE(r.ok) << r.summary;
  EXPECT_EQ(r.summary, "on cpu");
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(filler.get().ok);
  EXPECT_TRUE(blocker.get().ok);
}

// --------------------------------------------------------- fault storms ----

TEST(Chaos, SeededStormIsReproducibleAcrossRunsAndWorkerCounts) {
  const std::uint64_t seed = 0xC4A05ull + chaos_seed();
  const auto once = run_storm(seed, 0.2, 1, 60, 4);
  const auto again = run_storm(seed, 0.2, 1, 60, 4);
  const auto wide = run_storm(seed, 0.2, 4, 60, 4);
  EXPECT_EQ(once, again) << "same seed, same worker count";
  EXPECT_EQ(once, wide) << "same seed, different worker count";

  // Artifact for the CI chaos matrix: the full per-job fault log, so a
  // failing seed can be replayed offline.
  const char* artifact = std::getenv("REBOOTING_CHAOS_ARTIFACT");
  std::ofstream out(artifact && *artifact ? artifact : "chaos_fault_log.txt");
  out << "seed " << seed << "\n";
  for (std::size_t i = 0; i < once.size(); ++i) {
    out << "job " << i << " ok=" << once[i].ok
        << " attempts=" << once[i].attempts << "\n";
    for (const auto& line : once[i].fault_log) out << "  " << line << "\n";
  }
}

TEST(Chaos, DifferentSeedsProduceDifferentStorms) {
  const auto a = run_storm(1, 0.3, 1, 60, 4);
  const auto b = run_storm(2, 0.3, 1, 60, 4);
  EXPECT_NE(a, b);
}

TEST(Chaos, StormsAtSeveralProbabilitiesNeverAbandonJobs) {
  for (const core::Real p : {0.05, 0.2, 0.5}) {
    const auto outcomes = run_storm(7, p, 3, 80, 6);
    ASSERT_EQ(outcomes.size(), 80u);
    std::size_t degraded = 0, faults = 0;
    for (const auto& o : outcomes) {
      EXPECT_GE(o.attempts, 1u);
      EXPECT_LE(o.attempts, 6u);
      // A job that spent more than one attempt must say why.
      if (o.attempts > 1) {
        ++degraded;
        EXPECT_FALSE(o.fault_log.empty());
      }
      faults += o.fault_log.size();
      if (!o.ok) EXPECT_EQ(o.attempts, 6u) << "failed before exhaustion";
    }
    if (p >= 0.2) EXPECT_GT(degraded, 0u) << "p=" << p;
    if (p >= 0.2) EXPECT_GT(faults, 0u) << "p=" << p;
  }
}

TEST(Chaos, LatencySpikeStallsButSucceedsUndegraded) {
  FaultPlan plan;
  plan.seed = 3;
  plan.kinds[AcceleratorKind::kClassicalCpu].latency_spike_probability = 1.0;
  plan.kinds[AcceleratorKind::kClassicalCpu].latency_spike_seconds = 0.005;
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     FaultyAccelerator::wrap(
                         core::CpuAccelerator::factory(),
                         std::make_shared<const FaultPlan>(plan)));
  const auto start = Clock::now();
  const auto r =
      scheduler.submit(cpu_job("spiked", [] { return ok_result(); })).get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_FALSE(r.degraded);  // the attempt succeeded, just slowly
  EXPECT_GE(Clock::now() - start, 4ms);
  ASSERT_EQ(r.fault_log.size(), 1u);
  EXPECT_NE(r.fault_log[0].find("latency spike"), std::string::npos);
}

TEST(Chaos, CorruptionDiscardsTheResultAndRetries) {
  FaultPlan plan;
  plan.seed = 4;
  plan.kinds[AcceleratorKind::kClassicalCpu].corruption_probability = 1.0;
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     FaultyAccelerator::wrap(
                         core::CpuAccelerator::factory(),
                         std::make_shared<const FaultPlan>(plan)));
  std::atomic<int> calls{0};
  const auto r = scheduler
                     .submit(cpu_job("corrupted",
                                     [&] {
                                       ++calls;
                                       return ok_result("tainted");
                                     }),
                             retrying(3))
                     .get();
  EXPECT_FALSE(r.ok);  // every attempt's result was discarded
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(calls.load(), 3);  // the payload DID run each time
  EXPECT_NE(r.summary.find("failed after 3 attempt"), std::string::npos);
  ASSERT_EQ(r.fault_log.size(), 3u);
  EXPECT_NE(r.fault_log[0].find("corruption"), std::string::npos);
}

TEST(Chaos, PermanentWearOutShiftsWorkToTheFallbackPool) {
  FaultPlan plan;
  plan.kinds[AcceleratorKind::kMemcomputing].permanent_after = 3;
  Scheduler scheduler;
  scheduler.add_pool(
      AcceleratorKind::kMemcomputing, 1,
      FaultyAccelerator::wrap(memcomputing::MemcomputingAccelerator::factory(),
                              std::make_shared<const FaultPlan>(plan)));
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  JobOptions opts = retrying(2);
  opts.retry.cpu_fallback = true;
  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 10; ++i)
    futures.push_back(scheduler.submit(
        core::Job{"wear-" + std::to_string(i),
                  AcceleratorKind::kMemcomputing, [] { return ok_result(); }},
        opts));
  std::size_t failed_over = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.summary;  // every job completes *somewhere*
    for (const auto& line : r.fault_log)
      if (line.find("failing over") != std::string::npos) {
        ++failed_over;
        break;
      }
  }
  // The device wore out after 3 calls; the bulk of the batch survived only
  // via the classical-cpu fallback.
  EXPECT_GE(failed_over, 5u);
}

// ------------------------------------------------------ circuit breaker ----

TEST(Breaker, OpensAfterConsecutiveFailuresAndRefusesWork) {
  Scheduler scheduler({.breaker = {.failure_threshold = 3, .cooldown = 10min}});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::atomic<int> calls{0};
  for (int i = 0; i < 3; ++i)
    scheduler
        .submit(cpu_job("fail-" + std::to_string(i),
                        [&] {
                          ++calls;
                          return bad_result();
                        }))
        .wait();
  auto health = scheduler.health(AcceleratorKind::kClassicalCpu);
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].state, BreakerState::kOpen);
  EXPECT_EQ(health[0].times_opened, 1u);
  EXPECT_GE(health[0].consecutive_failures, 3u);

  // The next job is refused without executing.
  const auto r = scheduler
                     .submit(cpu_job("refused",
                                     [&] {
                                       ++calls;
                                       return ok_result();
                                     }))
                     .get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(calls.load(), 3);
  ASSERT_FALSE(r.fault_log.empty());
  EXPECT_NE(r.fault_log[0].find("breaker open"), std::string::npos);
}

TEST(Breaker, HalfOpenProbeSuccessClosesTheCircuit) {
  Scheduler scheduler({.breaker = {.failure_threshold = 2, .cooldown = 20ms}});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  for (int i = 0; i < 2; ++i)
    scheduler.submit(cpu_job("fail", [] { return bad_result(); })).wait();
  EXPECT_EQ(scheduler.health(AcceleratorKind::kClassicalCpu)[0].state,
            BreakerState::kOpen);
  std::this_thread::sleep_for(30ms);
  // Cooldown elapsed: the snapshot reports half-open, and the next attempt
  // is the probe.
  EXPECT_EQ(scheduler.health(AcceleratorKind::kClassicalCpu)[0].state,
            BreakerState::kHalfOpen);
  const auto r =
      scheduler.submit(cpu_job("probe", [] { return ok_result(); })).get();
  EXPECT_TRUE(r.ok);
  const auto health = scheduler.health(AcceleratorKind::kClassicalCpu);
  EXPECT_EQ(health[0].state, BreakerState::kClosed);
  EXPECT_EQ(health[0].consecutive_failures, 0u);
}

TEST(Breaker, FailedProbeReopensForAnotherCooldown) {
  Scheduler scheduler({.breaker = {.failure_threshold = 2, .cooldown = 20ms}});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  for (int i = 0; i < 2; ++i)
    scheduler.submit(cpu_job("fail", [] { return bad_result(); })).wait();
  std::this_thread::sleep_for(30ms);
  scheduler.submit(cpu_job("bad-probe", [] { return bad_result(); })).wait();
  const auto health = scheduler.health(AcceleratorKind::kClassicalCpu);
  EXPECT_EQ(health[0].state, BreakerState::kOpen);
  EXPECT_EQ(health[0].times_opened, 2u);
}

TEST(Breaker, OpenBreakerFailsJobsOverToTheCpuPool) {
  Scheduler scheduler({.breaker = {.failure_threshold = 1, .cooldown = 10min}});
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  // Device-dependent payload: fails on the memcomputing replica, succeeds on
  // the CPU — the shape of work that is *worth* failing over.
  const auto device_payload = [](core::Accelerator& acc) {
    return acc.kind() == AcceleratorKind::kMemcomputing ? bad_result("device")
                                                        : ok_result("on cpu");
  };
  // Trip the memcomputing breaker (no fallback on this one).
  scheduler
      .submit("trip", AcceleratorKind::kMemcomputing, device_payload)
      .wait();
  ASSERT_EQ(scheduler.health(AcceleratorKind::kMemcomputing)[0].state,
            BreakerState::kOpen);

  JobOptions opts;
  opts.retry.cpu_fallback = true;
  const auto r = scheduler
                     .submit("rescued", AcceleratorKind::kMemcomputing,
                             device_payload, opts)
                     .get();
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.summary, "on cpu");
  EXPECT_TRUE(r.degraded);
  ASSERT_FALSE(r.fault_log.empty());
  EXPECT_NE(r.fault_log[0].find("failing over"), std::string::npos);
}

TEST(Breaker, WithoutOptInThereIsNoFailover) {
  Scheduler scheduler({.breaker = {.failure_threshold = 1, .cooldown = 10min}});
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  scheduler
      .submit(core::Job{"trip", AcceleratorKind::kMemcomputing,
                        [] { return bad_result(); }})
      .wait();
  std::atomic<bool> ran{false};
  const auto r = scheduler
                     .submit(core::Job{"stuck", AcceleratorKind::kMemcomputing,
                                       [&] {
                                         ran = true;
                                         return ok_result();
                                       }})
                     .get();
  EXPECT_FALSE(r.ok);  // refused by the open breaker, no hop without opt-in
  EXPECT_FALSE(ran.load());
  EXPECT_EQ(scheduler.stats(AcceleratorKind::kClassicalCpu).jobs_completed,
            0u);
}

TEST(Health, SnapshotCoversEveryReplica) {
  Scheduler scheduler({.breaker = {.failure_threshold = 5}});
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 3,
                     core::CpuAccelerator::factory());
  const auto health = scheduler.health(AcceleratorKind::kClassicalCpu);
  ASSERT_EQ(health.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(health[i].replica, i);
    EXPECT_EQ(health[i].state, BreakerState::kClosed);
    EXPECT_EQ(health[i].total_failures, 0u);
  }
  EXPECT_THROW(scheduler.health(AcceleratorKind::kQuantum), std::out_of_range);
}

// ------------------------------------------------- lifecycle under fire ----

TEST(Lifecycle, DrainIsExactAcrossFailoverHops) {
  Scheduler scheduler;
  scheduler.add_pool(
      AcceleratorKind::kMemcomputing, 2,
      FaultyAccelerator::wrap(
          memcomputing::MemcomputingAccelerator::factory(),
          transient_plan(AcceleratorKind::kMemcomputing, 11, 0.6)));
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 2,
                     core::CpuAccelerator::factory());
  JobOptions opts = retrying(2);
  opts.retry.cpu_fallback = true;
  std::vector<std::future<core::JobResult>> futures;
  for (int i = 0; i < 40; ++i)
    futures.push_back(scheduler.submit(
        core::Job{"hop-" + std::to_string(i), AcceleratorKind::kMemcomputing,
                  [] { return ok_result(); }},
        opts));
  scheduler.drain();
  // drain() returned: every future must already be ready, even for jobs that
  // migrated between pools mid-flight.
  for (auto& f : futures) EXPECT_TRUE(ready(f));
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

TEST(Lifecycle, ShutdownUnderActiveFaultsCompletesEveryFuture) {
  std::vector<std::future<core::JobResult>> futures;
  {
    Scheduler scheduler({.queue_capacity = 128});
    scheduler.add_pool(
        AcceleratorKind::kClassicalCpu, 2,
        FaultyAccelerator::wrap(
            core::CpuAccelerator::factory(),
            transient_plan(AcceleratorKind::kClassicalCpu, 13, 0.5)));
    for (int i = 0; i < 50; ++i)
      futures.push_back(scheduler.submit(
          cpu_job("storm-" + std::to_string(i), [] { return ok_result(); }),
          retrying(4)));
    scheduler.shutdown();  // races the storm on purpose
  }
  for (auto& f : futures) {
    ASSERT_TRUE(ready(f));
    const auto r = f.get();  // ok, retried-ok, or flushed — never abandoned
    if (!r.ok)
      EXPECT_FALSE(r.summary.empty());
  }
}

TEST(Lifecycle, DestructorUnderStormNeverAbandonsFutures) {
  std::vector<std::future<core::JobResult>> futures;
  {
    Scheduler scheduler({.queue_capacity = 64,
                         .breaker = {.failure_threshold = 2, .cooldown = 1ms}});
    scheduler.add_pool(
        AcceleratorKind::kClassicalCpu, 3,
        FaultyAccelerator::wrap(
            core::CpuAccelerator::factory(),
            transient_plan(AcceleratorKind::kClassicalCpu, 17, 0.4)));
    for (int i = 0; i < 30; ++i)
      futures.push_back(scheduler.submit(
          cpu_job("doomed-" + std::to_string(i), [] { return ok_result(); }),
          retrying(3)));
    // No drain, no shutdown: the destructor handles the live storm.
  }
  for (auto& f : futures) EXPECT_TRUE(ready(f));
}

TEST(Lifecycle, ShutdownFlushesAJobWaitingOutItsBackoff) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  JobOptions opts;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff = 2s;
  opts.retry.max_backoff = 2s;
  std::atomic<int> calls{0};
  auto f = scheduler.submit(cpu_job("backing-off",
                                    [&] {
                                      ++calls;
                                      return bad_result("glitch");
                                    }),
                            opts);
  // The failed first attempt puts the job back in the queue for 2 s.
  while (calls.load() == 0 ||
         scheduler.stats(AcceleratorKind::kClassicalCpu).in_flight != 0)
    std::this_thread::sleep_for(1ms);
  const auto start = Clock::now();
  scheduler.shutdown();
  EXPECT_LT(Clock::now() - start, 1s) << "shutdown waited out the backoff";
  const auto r = f.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.disposition, core::JobDisposition::kFlushed);
  EXPECT_EQ(r.attempts, 1u);
  ASSERT_EQ(r.fault_log.size(), 1u);
  EXPECT_NE(r.fault_log[0].find("attempt 1: payload failed: glitch"),
            std::string::npos);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Lifecycle, ShutdownWhileAFallbackJobFailsDoesNotDeadlock) {
  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                     memcomputing::MemcomputingAccelerator::factory());
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());
  std::latch entered{1};
  JobOptions opts;
  opts.retry.cpu_fallback = true;
  // The device attempt fails once shutdown() is joining the workers, so
  // the job's failover to the CPU pool races the join.
  auto f = scheduler.submit(
      "fails-during-shutdown", AcceleratorKind::kMemcomputing,
      [&](core::Accelerator&) {
        entered.count_down();
        while (scheduler.accepting()) std::this_thread::sleep_for(1ms);
        std::this_thread::sleep_for(80ms);
        return bad_result("device");
      },
      opts);
  entered.wait();
  std::promise<void> returned;
  std::thread watchdog([done = returned.get_future()] {
    if (done.wait_for(5s) != std::future_status::ready) {
      std::fprintf(stderr, "watchdog: shutdown() deadlocked\n");
      std::abort();
    }
  });
  scheduler.shutdown();
  returned.set_value();
  watchdog.join();
  const auto r = f.get();
  EXPECT_EQ(r.disposition, core::JobDisposition::kFlushed);
  EXPECT_EQ(r.attempts, 1u);
}

// ------------------------------------------------------------ telemetry ----

TEST(ResilienceTelemetry, CountersAreWired) {
  telemetry::Telemetry::set_enabled(true);
  telemetry::Telemetry::instance().reset();
  {
    // transient_probability = 1.0: every attempt faults, so one job with
    // max_attempts = 2 yields exactly 2 attempts, 2 injected faults, 1 retry,
    // 1 breaker-open (threshold 2), and 1 failed job.
    Scheduler scheduler({.breaker = {.failure_threshold = 2, .cooldown = 10min}});
    scheduler.add_pool(
        AcceleratorKind::kClassicalCpu, 1,
        FaultyAccelerator::wrap(
            core::CpuAccelerator::factory(),
            transient_plan(AcceleratorKind::kClassicalCpu, 21, 1.0)));
    scheduler
        .submit(cpu_job("always-faults", [] { return ok_result(); }),
                retrying(2))
        .wait();
  }
  const auto& metrics = telemetry::Telemetry::instance().metrics();
  EXPECT_DOUBLE_EQ(metrics.counter("sched.attempts"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.faults_injected"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.retries"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.breaker_open"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.jobs_failed"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.jobs"), 1.0);
  telemetry::Telemetry::instance().reset();
  telemetry::Telemetry::set_enabled(false);
}

TEST(ResilienceTelemetry, FailoverAndDegradedAreCounted) {
  telemetry::Telemetry::set_enabled(true);
  telemetry::Telemetry::instance().reset();
  {
    Scheduler scheduler(
        {.breaker = {.failure_threshold = 1, .cooldown = 10min}});
    scheduler.add_pool(AcceleratorKind::kMemcomputing, 1,
                       memcomputing::MemcomputingAccelerator::factory());
    scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                       core::CpuAccelerator::factory());
    scheduler
        .submit(core::Job{"trip", AcceleratorKind::kMemcomputing,
                          [] { return bad_result(); }})
        .wait();
    JobOptions opts;
    opts.retry.cpu_fallback = true;
    scheduler
        .submit(core::Job{"rescued", AcceleratorKind::kMemcomputing,
                          [] { return ok_result(); }},
                opts)
        .wait();
  }
  const auto& metrics = telemetry::Telemetry::instance().metrics();
  EXPECT_DOUBLE_EQ(metrics.counter("sched.failover"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.degraded"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.counter("sched.jobs.classical-cpu"), 1.0);
  telemetry::Telemetry::instance().reset();
  telemetry::Telemetry::set_enabled(false);
}

// ------------------------------------------- mid-slice preemption chaos ----

// The scheduler-level leg of the DESIGN.md §12 guarantee (the process-death
// leg is scripts/chaos_kill_resume.sh): a checkpointed DMM solve that is
// preempted many times by a seeded storm of higher-priority jobs must
// produce a bit-identical trajectory to the uninterrupted solver. The storm
// cadence derives from the CI chaos seed, so every matrix entry preempts at
// different checkpoints.
TEST(Chaos, PreemptedSlicedSolveIsBitIdenticalToUninterrupted) {
  // A 60-variable planted instance: thousands of integration steps, so the
  // 8-step slices give the storm thousands of preemption points.
  core::Rng gen(4242);
  const auto inst =
      memcomputing::planted_ksat(gen, 60, 255, 3);
  memcomputing::DmmOptions dopts;
  dopts.max_steps = 200'000;
  dopts.energy_stride = 8;
  const memcomputing::DmmSolver solver(inst.cnf, dopts);

  const std::uint64_t seed = 0x51CEull + chaos_seed();
  core::Rng v0_rng = core::Rng::stream(seed, 0);
  std::vector<core::Real> v0(60);
  for (auto& v : v0) v = v0_rng.uniform(-1.0, 1.0);

  core::Rng direct_rng = core::Rng::stream(seed, 1);
  const memcomputing::DmmResult direct = solver.solve_from(v0, direct_rng);

  Scheduler scheduler;
  scheduler.add_pool(AcceleratorKind::kClassicalCpu, 1,
                     core::CpuAccelerator::factory());

  struct SolveState {
    core::Checkpoint ckpt;
    core::Workspace ws;
  };
  const auto state = std::make_shared<SolveState>();
  state->ckpt = solver.begin(v0, core::Rng::stream(seed, 1));

  // The payload parks at EVERY checkpoint (8 accepted steps), so the whole
  // trajectory transits the yield/re-enqueue/resume machinery hundreds of
  // times while the storm's higher-priority jobs jump the queue between
  // slices — the densest interleaving the scheduler can produce.
  auto sliced = scheduler.submit_preemptible(
      "chaos-sliced-solve", AcceleratorKind::kClassicalCpu,
      [&solver, state](core::Accelerator&, const YieldProbe&)
          -> std::optional<core::JobResult> {
        const memcomputing::DmmSliceOutcome out =
            solver.advance(state->ckpt, core::SliceBudget::steps(8),
                           state->ws);
        if (!out.done) return std::nullopt;
        core::JobResult r;
        r.ok = true;  // fingerprints are compared below either way
        return r;
      });

  // The storm: seeded bursts of higher-priority jobs racing the slices.
  core::Rng storm(seed ^ 0xBADCAB1Eull);
  std::vector<std::future<core::JobResult>> bursts;
  while (sliced.wait_for(0s) != std::future_status::ready) {
    const int burst = 1 + static_cast<int>(storm() % 3);
    for (int i = 0; i < burst; ++i) {
      JobOptions opts;
      opts.priority = 5;
      bursts.push_back(scheduler.submit(
          cpu_job("storm-high", [] { return ok_result(); }), opts));
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(200 + storm() % 800));
  }
  for (auto& f : bursts) EXPECT_TRUE(f.get().ok);
  EXPECT_TRUE(sliced.get().ok);

  const SchedulerStats stats = scheduler.stats();
  EXPECT_GE(stats.preempts, 1u);
  EXPECT_EQ(stats.preempts, stats.resumes);

  // Whatever the preemption pattern was, the trajectory is the direct one.
  const memcomputing::DmmResult got =
      solver.result_from_checkpoint(state->ckpt);
  EXPECT_EQ(got.satisfied, direct.satisfied);
  EXPECT_EQ(got.steps, direct.steps);
  EXPECT_EQ(got.sim_time, direct.sim_time);
  EXPECT_EQ(got.steps_to_best, direct.steps_to_best);
  EXPECT_EQ(got.assignment, direct.assignment);
  EXPECT_EQ(got.max_abs_voltage, direct.max_abs_voltage);
  EXPECT_EQ(got.energy_trace, direct.energy_trace);
}

}  // namespace
}  // namespace rebooting::sched
