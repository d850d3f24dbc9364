// Hierarchical tracing and process-wide telemetry for the Fig. 1 host and
// its engines.
//
// The model: instrumented code opens RAII Spans (TELEM_SPAN("quantum.compile"))
// that nest by call structure into a tree; identical paths aggregate into one
// node carrying count / total / min / max wall time. Alongside the span tree
// lives a MetricsRegistry of named counters, gauges, and histograms
// (metrics.h). Both render as aligned console tables (report()) and as JSON
// (to_json() / write_json()).
//
// Cost discipline: telemetry is OFF by default. Every entry point first reads
// one relaxed atomic bool — a disabled TELEM_SPAN is a load + branch, no
// clock read, no allocation (benchmarked in bench/micro_kernels.cpp). Enable
// programmatically with Telemetry::set_enabled(true), or via environment:
//
//   REBOOTING_TELEMETRY=1            enable; print the report to stderr at exit
//   REBOOTING_TELEMETRY_JSON=out.json enable; write the JSON export at exit
//
// Thread safety: span begin/end and registry updates are mutex-guarded, and
// the active-span cursor is thread-local, so parallel engines each build
// their own branch under the shared tree. reset() and set_enabled() must not
// race with open spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace rebooting::telemetry {

namespace detail {
/// The global on/off switch, read on every instrumentation hit. Out-of-line
/// storage lives in telemetry.cpp.
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Aggregated wall-time statistics of one span path.
struct SpanStats {
  std::size_t count = 0;
  Real total_seconds = 0.0;
  Real min_seconds = 0.0;
  Real max_seconds = 0.0;
};

/// One node of the aggregated span tree. Children are ordered by first entry,
/// which keeps the rendered report in execution order.
class SpanNode {
 public:
  explicit SpanNode(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  const SpanStats& stats() const { return stats_; }
  const std::vector<std::unique_ptr<SpanNode>>& children() const {
    return children_;
  }

  /// Child with the given name, or nullptr.
  const SpanNode* find(std::string_view name) const;

 private:
  friend class Telemetry;
  SpanNode* find_or_add(std::string_view name);

  std::string name_;
  SpanStats stats_;
  std::vector<std::unique_ptr<SpanNode>> children_;
};

/// Process-wide telemetry state: the span tree, the metrics registry, and the
/// sink (report/JSON rendering). A Meyers-style never-destroyed singleton so
/// atexit flushing cannot race static destruction.
class Telemetry {
 public:
  /// The process-wide instance (created on first use, never destroyed).
  static Telemetry& instance();

  static bool enabled() {
    return detail::g_enabled.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
  }

  MetricsRegistry& metrics() { return metrics_; }

  /// Root of the aggregated span tree. The root itself carries no timing;
  /// its children are the top-level spans. Take care to not mutate telemetry
  /// concurrently while walking the tree.
  const SpanNode& root() const { return root_; }

  /// Used by Span: descends the current thread's cursor into (creating if
  /// needed) the named child and returns it.
  SpanNode* begin_span(std::string_view name);
  /// Used by Span: folds `elapsed_seconds` into `node` and restores the
  /// cursor to `parent`.
  void end_span(SpanNode* node, SpanNode* parent, Real elapsed_seconds);

  /// Drops all spans and metrics. Must not be called with spans open (the
  /// RAII guards of any live TELEM_SPAN would point into the dropped tree).
  void reset();

  // --- sink (implemented in sink.cpp) ---------------------------------------
  /// Aligned console rendering of the span tree and registry (core::Table).
  std::string report() const;
  /// The whole telemetry state as a JSON document.
  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure. The exit hook
  /// installed for REBOOTING_TELEMETRY_JSON / REBOOTING_TELEMETRY calls this
  /// and report() (telemetry.cpp).
  bool write_json(const std::string& path) const;

 private:
  Telemetry() : root_("root") {}

  mutable std::mutex span_mutex_;
  SpanNode root_;
  MetricsRegistry metrics_;
};

/// RAII tracing guard. Construction (when telemetry is enabled) descends into
/// the named child of the innermost open span on this thread; destruction
/// records the elapsed wall time. When disabled both ends are no-ops.
class Span {
 public:
  explicit Span(std::string_view name) {
    if (!Telemetry::enabled()) return;
    auto& telem = Telemetry::instance();
    parent_ = current();
    node_ = telem.begin_span(name);
    start_ = std::chrono::steady_clock::now();
  }

  ~Span() {
    if (!node_) return;
    const auto end = std::chrono::steady_clock::now();
    Telemetry::instance().end_span(
        node_, parent_, std::chrono::duration<Real>(end - start_).count());
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The innermost open span node on this thread (nullptr = tree root).
  static SpanNode* current();

 private:
  SpanNode* node_ = nullptr;
  SpanNode* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

/// Counter / gauge / histogram helpers that vanish to a load + branch while
/// telemetry is disabled.
inline void count(const std::string& name, Real delta = 1.0) {
  if (Telemetry::enabled()) Telemetry::instance().metrics().add(name, delta);
}
inline void gauge(const std::string& name, Real value) {
  if (Telemetry::enabled()) Telemetry::instance().metrics().set(name, value);
  // Gauges double as trace counter tracks (queue depth, ensemble progress):
  // every set becomes one sample on the gauge's timeline when tracing is on.
  if (trace_enabled()) trace_counter_named(name, value);
}
inline void record(const std::string& name, Real value) {
  if (Telemetry::enabled()) Telemetry::instance().metrics().record(name, value);
}

}  // namespace rebooting::telemetry

#define REBOOTING_TELEM_CONCAT_(a, b) a##b
#define REBOOTING_TELEM_CONCAT(a, b) REBOOTING_TELEM_CONCAT_(a, b)

/// Opens a span for the rest of the enclosing scope.
#define TELEM_SPAN(name)                                      \
  ::rebooting::telemetry::Span REBOOTING_TELEM_CONCAT(        \
      rebooting_telem_span_, __LINE__)(name)

#define TELEM_COUNT(name, ...) \
  ::rebooting::telemetry::count(name __VA_OPT__(, ) __VA_ARGS__)
#define TELEM_GAUGE(name, value) ::rebooting::telemetry::gauge(name, value)
#define TELEM_RECORD(name, value) ::rebooting::telemetry::record(name, value)
