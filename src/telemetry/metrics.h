// Named metrics for the telemetry layer: monotonically accumulated counters,
// last-value gauges, and log2-bucketed histograms. One process-wide registry
// lives inside telemetry::Telemetry; engines normally go through the
// TELEM_COUNT / TELEM_GAUGE / TELEM_RECORD helpers in telemetry.h, which are
// no-ops while telemetry is disabled.
//
// Thread safety: every mutating and reading member takes the registry mutex,
// so future parallel engines can bang on one registry from worker threads.
// The contention unit is a whole registry update — fine for the coarse
// per-phase counters used here, not meant for per-amplitude increments.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/types.h"

namespace rebooting::telemetry {

using core::Real;

/// Immutable copy of one histogram's state, safe to inspect without holding
/// the registry lock.
struct HistogramSnapshot {
  std::size_t count = 0;
  Real sum = 0.0;
  Real min = 0.0;  ///< smallest recorded value (0 when count == 0)
  Real max = 0.0;  ///< largest recorded value (0 when count == 0)
  /// Non-empty buckets as (inclusive upper bound, count). Bucket boundaries
  /// are powers of two; values <= 0 land in the first bucket with bound 0.
  std::vector<std::pair<Real, std::size_t>> buckets;

  Real mean() const { return count ? sum / static_cast<Real>(count) : 0.0; }

  /// Bucket-resolution quantile estimate for q in [0, 1]: the upper bound of
  /// the first bucket whose cumulative count reaches q * count, clamped to
  /// the observed [min, max] so estimates never leave the data range.
  /// Edges are exact where the data allows: q = 0 returns `min`, and a
  /// single-bucket histogram interpolates [min, max] (exact when all
  /// recorded values are equal).
  Real quantile(Real q) const;
};

/// Fixed-size log2 histogram. Covers 2^-40 .. 2^24 (~1e-12 .. 1.7e7), which
/// spans everything recorded here: seconds-scale timings down to nanoseconds
/// and dimensionless clause energies up to clause counts. Values outside the
/// range clamp into the edge buckets.
class Histogram {
 public:
  void record(Real v);
  HistogramSnapshot snapshot() const;

  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 24;
  /// Bucket 0 holds v <= 0; bucket i >= 1 holds 2^(kMinExp+i-2) < v <= 2^(kMinExp+i-1).
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) + 2;

  /// Index of the bucket `v` falls into (exposed for tests).
  static std::size_t bucket_index(Real v);
  /// Inclusive upper bound of bucket `i`.
  static Real bucket_bound(std::size_t i);

 private:
  std::size_t count_ = 0;
  Real sum_ = 0.0;
  Real min_ = 0.0;
  Real max_ = 0.0;
  std::array<std::size_t, kBuckets> buckets_{};
};

/// The process-wide named-metric store of the tentpole: counters accumulate,
/// gauges overwrite, histograms bucket. Names are dotted paths such as
/// "oscillator.hysteresis_events" — the same convention as core::Metrics keys,
/// so the scheduler can merge job metrics straight in.
class MetricsRegistry {
 public:
  /// Adds `delta` to the named counter (creating it at 0).
  void add(const std::string& name, Real delta = 1.0);
  /// Sets the named gauge to `value`.
  void set(const std::string& name, Real value);
  /// Records `value` into the named histogram.
  void record(const std::string& name, Real value);

  /// Current counter value; 0 for a name never added to.
  Real counter(const std::string& name) const;
  /// Current gauge value, or nullopt if never set.
  std::optional<Real> gauge(const std::string& name) const;
  /// Snapshot of the named histogram; empty snapshot if never recorded.
  HistogramSnapshot histogram(const std::string& name) const;

  std::map<std::string, Real> counters() const;
  std::map<std::string, Real> gauges() const;
  std::map<std::string, HistogramSnapshot> histograms() const;

  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Real> counters_;
  std::map<std::string, Real> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rebooting::telemetry
