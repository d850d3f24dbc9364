// Rendering backends of the telemetry layer: the aligned console report
// (core::Table) and the machine-readable JSON export. The process-exit
// flushing driven by REBOOTING_TELEMETRY / REBOOTING_TELEMETRY_JSON lives
// with the environment parsing in telemetry.cpp.
#include <fstream>
#include <sstream>

#include "core/json.h"
#include "core/table.h"
#include "telemetry/telemetry.h"

namespace rebooting::telemetry {

namespace {

void span_rows(const SpanNode& node, std::size_t depth, Real parent_total,
               core::Table& table) {
  const SpanStats& s = node.stats();
  const Real share =
      parent_total > 0.0 ? 100.0 * s.total_seconds / parent_total : 100.0;
  table.add_row({std::string(2 * depth, ' ') + node.name(),
                 static_cast<std::int64_t>(s.count), s.total_seconds * 1e3,
                 s.count ? s.total_seconds / static_cast<Real>(s.count) * 1e6
                         : 0.0,
                 s.min_seconds * 1e6, s.max_seconds * 1e6, share});
  for (const auto& child : node.children())
    span_rows(*child, depth + 1, s.total_seconds, table);
}

void span_json(const SpanNode& node, std::ostringstream& os) {
  const SpanStats& s = node.stats();
  os << '{' << core::json_quote("name") << ':' << core::json_quote(node.name())
     << ',' << core::json_quote("count") << ':'
     << core::json_number(static_cast<std::int64_t>(s.count)) << ','
     << core::json_quote("total_seconds") << ':'
     << core::json_number(s.total_seconds) << ','
     << core::json_quote("min_seconds") << ':'
     << core::json_number(s.min_seconds) << ','
     << core::json_quote("max_seconds") << ':'
     << core::json_number(s.max_seconds) << ','
     << core::json_quote("children") << ":[";
  bool first = true;
  for (const auto& child : node.children()) {
    if (!first) os << ',';
    first = false;
    span_json(*child, os);
  }
  os << "]}";
}

template <typename Map>
void scalar_map_json(const Map& values, std::ostringstream& os) {
  os << '{';
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) os << ',';
    first = false;
    os << core::json_quote(name) << ':' << core::json_number(value);
  }
  os << '}';
}

void histogram_json(const HistogramSnapshot& h, std::ostringstream& os) {
  os << '{' << core::json_quote("count") << ':'
     << core::json_number(static_cast<std::int64_t>(h.count)) << ','
     << core::json_quote("sum") << ':' << core::json_number(h.sum) << ','
     << core::json_quote("min") << ':' << core::json_number(h.min) << ','
     << core::json_quote("max") << ':' << core::json_number(h.max) << ','
     << core::json_quote("mean") << ':' << core::json_number(h.mean()) << ','
     << core::json_quote("p50") << ':' << core::json_number(h.quantile(0.5))
     << ',' << core::json_quote("p90") << ':'
     << core::json_number(h.quantile(0.9)) << ','
     << core::json_quote("p99") << ':'
     << core::json_number(h.quantile(0.99)) << ','
     << core::json_quote("buckets") << ":[";
  bool first = true;
  for (const auto& [bound, count] : h.buckets) {
    if (!first) os << ',';
    first = false;
    os << '[' << core::json_number(bound) << ','
       << core::json_number(static_cast<std::int64_t>(count)) << ']';
  }
  os << "]}";
}

}  // namespace

std::string Telemetry::report() const {
  std::ostringstream os;

  {
    const std::lock_guard<std::mutex> lock(span_mutex_);
    if (!root_.children().empty()) {
      core::Table spans({"span", "count", "total [ms]", "mean [us]",
                         "min [us]", "max [us]", "% parent"},
                        3);
      Real top_total = 0.0;
      for (const auto& child : root_.children())
        top_total += child->stats().total_seconds;
      for (const auto& child : root_.children())
        span_rows(*child, 0, top_total, spans);
      os << "Spans (wall time, nested by call structure):\n"
         << spans.to_string();
    }
  }

  const auto counters = metrics_.counters();
  if (!counters.empty()) {
    core::Table table({"counter", "value"}, 3);
    for (const auto& [name, value] : counters)
      table.add_row({name, value});
    os << "Counters:\n" << table.to_string();
  }

  const auto gauges = metrics_.gauges();
  if (!gauges.empty()) {
    core::Table table({"gauge", "value"}, 6);
    for (const auto& [name, value] : gauges) table.add_row({name, value});
    os << "Gauges:\n" << table.to_string();
  }

  const auto histograms = metrics_.histograms();
  if (!histograms.empty()) {
    core::Table table(
        {"histogram", "count", "mean", "p50", "p90", "p99", "min", "max"}, 4);
    for (const auto& [name, h] : histograms)
      table.add_row({name, static_cast<std::int64_t>(h.count), h.mean(),
                     h.quantile(0.5), h.quantile(0.9), h.quantile(0.99),
                     h.min, h.max});
    os << "Histograms:\n" << table.to_string();
  }

  if (os.str().empty()) os << "Telemetry: no spans or metrics recorded.\n";
  return os.str();
}

std::string Telemetry::to_json() const {
  std::ostringstream os;
  os << '{' << core::json_quote("enabled") << ':'
     << (enabled() ? "true" : "false") << ',' << core::json_quote("spans")
     << ':';
  {
    const std::lock_guard<std::mutex> lock(span_mutex_);
    span_json(root_, os);
  }
  os << ',' << core::json_quote("counters") << ':';
  scalar_map_json(metrics_.counters(), os);
  os << ',' << core::json_quote("gauges") << ':';
  scalar_map_json(metrics_.gauges(), os);
  os << ',' << core::json_quote("histograms") << ":{";
  bool first = true;
  for (const auto& [name, h] : metrics_.histograms()) {
    if (!first) os << ',';
    first = false;
    os << core::json_quote(name) << ':';
    histogram_json(h, os);
  }
  os << "}}";
  return os.str();
}

bool Telemetry::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace rebooting::telemetry
