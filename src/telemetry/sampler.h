// Periodic registry sampling: the bridge between the process-local
// MetricsRegistry (metrics.h) and anything that wants to watch it over time —
// rebootd's `metrics`/`watch` wire verbs and the `rebootctl top` dashboard.
//
// A Sampler takes point-in-time snapshots of one registry (counters, gauges,
// histogram snapshots) into a small fixed-capacity time-series ring and
// computes counter *rates* between consecutive samples. Counters only ever
// accumulate, so a remote observer cannot tell "busy" from "idle" by reading
// one value; the deltas/rates are what turn the registry into an ops surface
// (req/s, steals/s, faults/s).
//
// Two driving modes, freely mixed:
//
//   tick()         take one sample now (what rebootd's watch thread and the
//                  `metrics` verb call; also what makes tests deterministic)
//   start()/stop() background thread ticking every config.period — for
//                  embedders without their own cadence
//
// Thread safety: tick()/latest()/rates()/samples() are mutex-guarded and may
// be called from any thread concurrently with the background thread. The
// cost of one tick is one registry snapshot (three map copies under the
// registry lock) — bounded by bench/stats_overhead.cpp at <= 5 ms on a
// populated registry, so a 100 ms watch cadence costs well under 5% of one
// core and never stalls the instrumented hot paths (they only contend for
// the registry mutex, as any metric update already does).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "telemetry/metrics.h"

namespace rebooting::telemetry {

struct SamplerConfig {
  /// Cadence of the background thread (start()); tick() ignores it.
  double period_seconds = 0.5;
  /// Samples kept; older ones fall off the ring.
  std::size_t capacity = 120;
};

/// One point-in-time copy of the registry, stamped with seconds since the
/// sampler was constructed (monotonic, so rates are always well-defined).
struct MetricsSample {
  double t_seconds = 0.0;
  std::map<std::string, Real> counters;
  std::map<std::string, Real> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Counter deltas between two samples, normalized per second. Counters absent
/// from the older sample are treated as starting at 0 (they were created
/// in-between); dt == 0 yields an empty rate set rather than infinities.
struct MetricsRates {
  double dt_seconds = 0.0;
  std::map<std::string, Real> per_second;
};

class Sampler {
 public:
  explicit Sampler(const MetricsRegistry& registry, SamplerConfig config = {});
  ~Sampler();  ///< stop()s the background thread if running

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Takes one snapshot now, appends it to the ring, and returns a copy.
  MetricsSample tick();

  /// Spawns the background thread (idempotent). It ticks immediately, then
  /// every config.period_seconds until stop().
  void start();
  /// Joins the background thread (idempotent; safe when never started).
  void stop();

  /// Most recent sample; nullopt before the first tick.
  std::optional<MetricsSample> latest() const;
  /// Rates between the two most recent samples; empty before two ticks.
  MetricsRates rates() const;
  /// Rates between two arbitrary samples (exposed for tests and for rate
  /// windows wider than one period).
  static MetricsRates rates_between(const MetricsSample& older,
                                    const MetricsSample& newer);

  std::size_t size() const;
  const SamplerConfig& config() const { return config_; }

 private:
  void run();

  const MetricsRegistry& registry_;
  SamplerConfig config_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::deque<MetricsSample> ring_;

  std::mutex thread_mutex_;  ///< guards thread_ start/stop handshakes
  std::mutex wait_mutex_;    ///< pairs with stop_cv_ (never held with
                             ///< thread_mutex_ by the background thread)
  std::condition_variable stop_cv_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace rebooting::telemetry
