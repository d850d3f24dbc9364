// Registry sampling: the bridge between the process-local MetricsRegistry
// (metrics.h) and anything that watches it over time — rebootd's
// `metrics`/`watch` wire verbs and the `rebootctl top` dashboard.
//
// take_sample() copies one registry (counters, gauges, histogram snapshots)
// at one instant; rates_between() turns two such samples into counter
// *rates*. Counters only ever accumulate, so a remote observer cannot tell
// "busy" from "idle" by reading one value; the deltas/rates are what turn the
// registry into an ops surface (req/s, steals/s, faults/s). Which sample a
// rate is measured against is the caller's choice; the functions keep no
// state.
//
// Cost: one sample is one registry snapshot (three map copies, each under
// the registry lock) — bounded by bench/stats_overhead.cpp at <= 5 ms on a
// populated registry, so a 100 ms watch cadence costs well under 5% of one
// core and never stalls the instrumented hot paths (they only contend for
// the registry mutex, as any metric update already does).
#pragma once

#include <chrono>
#include <map>
#include <string>

#include "telemetry/metrics.h"

namespace rebooting::telemetry {

/// One point-in-time copy of the registry, stamped with seconds since the
/// caller's epoch (monotonic, so rates are always well-defined).
struct MetricsSample {
  double t_seconds = 0.0;
  std::map<std::string, Real> counters;
  std::map<std::string, Real> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Counter deltas between two samples, normalized per second. Counters absent
/// from the older sample are treated as starting at 0 (they were created
/// in-between); dt <= 0 yields an empty rate set rather than infinities.
struct MetricsRates {
  double dt_seconds = 0.0;
  std::map<std::string, Real> per_second;
};

/// Copies `registry` now, stamped with the seconds elapsed since `epoch`.
MetricsSample take_sample(const MetricsRegistry& registry,
                          std::chrono::steady_clock::time_point epoch);

/// Rates between two samples, `older` taken first.
MetricsRates rates_between(const MetricsSample& older,
                           const MetricsSample& newer);

}  // namespace rebooting::telemetry
