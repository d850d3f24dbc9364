#include "telemetry/sampler.h"

namespace rebooting::telemetry {

MetricsSample take_sample(const MetricsRegistry& registry,
                          std::chrono::steady_clock::time_point epoch) {
  MetricsSample sample;
  sample.t_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch)
                         .count();
  // Three registry locks, not one — each accessor snapshots consistently on
  // its own; a global cut across counter/gauge/histogram maps is not needed
  // for rate math (rates only ever compare counters with counters).
  sample.counters = registry.counters();
  sample.gauges = registry.gauges();
  sample.histograms = registry.histograms();
  return sample;
}

MetricsRates rates_between(const MetricsSample& older,
                           const MetricsSample& newer) {
  MetricsRates rates;
  rates.dt_seconds = newer.t_seconds - older.t_seconds;
  if (!(rates.dt_seconds > 0.0)) return rates;
  for (const auto& [name, value] : newer.counters) {
    const auto it = older.counters.find(name);
    const Real before = it != older.counters.end() ? it->second : 0.0;
    rates.per_second[name] = (value - before) / rates.dt_seconds;
  }
  return rates;
}

}  // namespace rebooting::telemetry
