// Shared pieces of the perfbench driver: run options, the metric sink every
// workload fills, sample statistics, and small process helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Also run the post-phase layer probes (uncached compiles, canonicalize
  /// timing, the 1-thread ensemble reference). They add run time, so only
  /// the per-layer report asks for them.
  bool layers = false;
  /// Harness self-test: corrupt one expected output so the checks must fail.
  bool inject_wrong_expectation = false;
  std::string rebootd_path;
  /// Where the rebootd child writes its trace when this process is tracing.
  std::string child_trace_path;
};

/// Everything one workload run reports. `correct` turns false on the first
/// failed output check; every failure is kept with a reason.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// name -> (value, unit)
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (check_failures.size() < 20) check_failures.push_back(what);
  }
};

/// Linear-interpolated quantile (the same definition as numpy's default).
/// Infinite samples sort last, so failed requests count as missing any limit.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (std::isinf(v[hi])) return frac > 0.0 || std::isinf(v[lo]) ? v[hi] : v[lo];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median over up to kWindows consecutive windows of a per-window quantile:
/// a window disturbed by the machine (a neighbour's burst, a descheduled
/// vCPU) or by one queueing episode moves one sample of the median, not the
/// result. Windows hold at least kMinWindowSamples values; with fewer than
/// 1000 a window's p99 is near its largest value.
constexpr std::size_t kWindows = 10;
constexpr std::size_t kMinWindowSamples = 50;

inline double windowed_quantile(const std::vector<double>& v, double q) {
  const std::size_t windows =
      std::clamp<std::size_t>(v.size() / kMinWindowSamples, 1, kWindows);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w)
    per_window.push_back(quantile(
        std::vector<double>(v.begin() + w * v.size() / windows,
                            v.begin() + (w + 1) * v.size() / windows),
        q));
  return median(per_window);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// splitmix64: derives every workload input from (seed, index).
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(const std::string& pid = "self");

/// Number of CPUs this process may run on.
std::size_t cpu_count();

/// The child process the run watchdog kills before it aborts a stuck run
/// (0 = none).
void set_watched_child(int pid);

void run_echo_wire(const RunOptions& opts, Result& out);
void run_sat_service(const RunOptions& opts, Result& out);
void run_engine_batch(const RunOptions& opts, Result& out);

}  // namespace perfbench
