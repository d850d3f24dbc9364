// Shared plumbing for the exit-gated benches: one record schema for every
// machine-readable BENCH_*.json artifact, and the min-pass timer of the
// ns-scale overhead benches.
//
// A bench makes one Report, adds a record for every quantity it measures and
// returns report.finish() from main: that prints the records as one table,
// writes the artifact and gives the exit code. Every artifact reads
//
//   {"bench": "trace_overhead",
//    "context": {"build_type": "Release", "compiler": "GNU 12.2.0",
//                "cores": 4},
//    "params": {"passes": 25, ...},
//    "records": [{"metric": "enabled_instant", "unit": "ns", "value": 51.8,
//                 "better": "lower", "gate": 100, "verdict": "pass"}, ...],
//    "verdict": "pass"}
//
// `params` maps names to numbers: the run's settings and the facts that
// describe it without rating it (sizes, counts, a checksum). In a record,
// `better` is "lower" or "higher" and `gate` is the bound, or null when the
// record is not gated. `verdict` is "pass" or "fail" for a gated record,
// "report" for an ungated one, and "skipped: <reason>" for a gate this host
// cannot judge. A lower-is-better gate passes on value < gate, a
// higher-is-better one on value >= gate; a NaN value (null in the artifact)
// fails either. A check (a property that must hold, such as
// bit-reproducibility) is a higher-is-better record of unit "bool" gated at
// 1. The artifact's verdict is "fail" when any record failed.
// scripts/bench_check.py validates artifacts against this schema.
//
// The artifact lands next to the binary itself (${CMAKE_BINARY_DIR}/bench),
// not in the CWD: `./build/bench/trace_overhead` from the repo root must not
// litter the checkout, and CI's artifact globs stay valid whichever directory
// a job runs the bench from. `--out PATH` overrides for scripted runs.
//
// build_type and compiler are stamped into each bench target at configure
// time (rebooting_stamp_build in the top-level CMakeLists.txt).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/json.h"
#include "core/table.h"

#if !defined(REBOOTING_BUILD_TYPE) || !defined(REBOOTING_COMPILER)
#error "bench_util.h: stamp this target with rebooting_stamp_build()"
#endif

namespace rebooting::bench {

enum class Better { kLower, kHigher };

/// Hardware threads visible to this process, at least 1.
inline unsigned cores() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Keeps the optimizer from proving a timed loop body dead or hoisting a
/// check (such as an enabled-flag load) out of the loop.
inline void clobber() { asm volatile("" ::: "memory"); }

/// Runs `passes` passes of `per_pass` calls body(i), clobber() after each,
/// and returns the fastest pass's ns per call: the minimum is the cost of the
/// code, the other passes add scheduler noise.
template <typename Body>
core::Real min_pass_ns(std::size_t passes, std::size_t per_pass,
                       const Body& body) {
  using Clock = std::chrono::steady_clock;
  core::Real best = std::numeric_limits<core::Real>::infinity();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < per_pass; ++i) {
      body(i);
      clobber();
    }
    const core::Real ns =
        std::chrono::duration<core::Real, std::nano>(Clock::now() - start)
            .count();
    best = std::min(best, ns / static_cast<core::Real>(per_pass));
  }
  return best;
}

/// One bench run's params and records (schema in the file comment).
class Report {
 public:
  /// `bench` names the binary. The artifact is written to `--out PATH` from
  /// argv, else to `<dir of argv[0]>/<artifact>`.
  Report(std::string bench, const std::string& artifact, int argc,
         char** argv)
      : bench_(std::move(bench)), path_(artifact) {
    for (int i = 1; i + 1 < argc; ++i)
      if (!std::strcmp(argv[i], "--out")) {
        path_ = argv[i + 1];
        return;
      }
    const std::string self = argc > 0 && argv[0] != nullptr ? argv[0] : "";
    const auto slash = self.rfind('/');
    if (slash != std::string::npos)
      path_ = self.substr(0, slash + 1) + artifact;
  }

  /// A setting or fact of the run that is not rated.
  void param(const std::string& name, core::Real value) {
    params_.emplace_back(name, core::JsonValue::make_number(value));
  }

  /// An ungated measurement.
  void measure(const std::string& metric, const std::string& unit,
               core::Real value, Better better) {
    add(metric, unit, value, better, std::nullopt, "report");
  }

  /// A measurement held to `bound` (value < bound when lower is better,
  /// value >= bound when higher is better).
  void gate(const std::string& metric, const std::string& unit,
            core::Real value, Better better, core::Real bound) {
    const bool ok = better == Better::kLower ? value < bound : value >= bound;
    add(metric, unit, value, better, bound, ok ? "pass" : "fail");
  }

  /// A property that must hold.
  void check(const std::string& metric, bool ok) {
    gate(metric, "bool", ok ? 1.0 : 0.0, Better::kHigher, 1.0);
  }

  /// A gate this host cannot judge; `reason` says why.
  void skip(const std::string& metric, const std::string& unit,
            core::Real value, Better better, const std::string& reason) {
    add(metric, unit, value, better, std::nullopt, "skipped: " + reason);
  }

  /// Prints the params and the records, writes the artifact and returns the
  /// exit code: 1 when a record failed or the artifact could not be written.
  int finish(std::ostream& os = std::cout) const {
    using core::JsonValue;
    const std::string verdict = pass_ ? "pass" : "fail";
    const JsonValue doc = JsonValue::make_object(
        {{"bench", JsonValue::make_string(bench_)},
         {"context",
          JsonValue::make_object(
              {{"build_type", JsonValue::make_string(REBOOTING_BUILD_TYPE)},
               {"compiler", JsonValue::make_string(REBOOTING_COMPILER)},
               {"cores", JsonValue::make_number(cores())}})},
         {"params", JsonValue::make_object(params_)},
         {"records", JsonValue::make_array(records_)},
         {"verdict", JsonValue::make_string(verdict)}});
    os << "\nparams:";
    for (const auto& [name, value] : params_)
      os << ' ' << name << '=' << core::json_dump(value);
    os << '\n';
    table_.print(os);
    std::ofstream out(path_);
    out << core::json_dump(doc) << '\n';
    out.close();
    if (!out) {
      std::cerr << bench_ << ": failed to write " << path_ << '\n';
      return 1;
    }
    os << "verdict: " << verdict << "; wrote " << path_ << '\n';
    return pass_ ? 0 : 1;
  }

 private:
  void add(const std::string& metric, const std::string& unit,
           core::Real value, Better better, std::optional<core::Real> gate,
           const std::string& verdict) {
    using core::JsonValue;
    const std::string direction =
        better == Better::kLower ? "lower" : "higher";
    pass_ = pass_ && verdict != "fail";
    table_.add_row({metric, unit, value, direction,
                    gate ? core::Cell(*gate) : core::Cell("-"), verdict});
    records_.push_back(JsonValue::make_object(
        {{"metric", JsonValue::make_string(metric)},
         {"unit", JsonValue::make_string(unit)},
         {"value", JsonValue::make_number(value)},
         {"better", JsonValue::make_string(direction)},
         {"gate",
          gate ? JsonValue::make_number(*gate) : JsonValue::make_null()},
         {"verdict", JsonValue::make_string(verdict)}}));
  }

  std::string bench_;
  std::string path_;
  core::JsonValue::Members params_;
  std::vector<core::JsonValue> records_;
  core::Table table_{{"metric", "unit", "value", "better", "gate", "verdict"},
                     4};
  bool pass_ = true;
};

}  // namespace rebooting::bench
