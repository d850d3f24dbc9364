#include "telemetry/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace rebooting::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Innermost open span of this thread; nullptr means "at the tree root".
thread_local SpanNode* t_current = nullptr;

/// The exit-time sinks the environment asks for, parsed once by EnvInit.
/// Leaked, like Telemetry::instance(), so the atexit hook never sees it
/// destroyed.
struct EnvSinks {
  std::string json_path;   ///< REBOOTING_TELEMETRY_JSON: JSON export
  std::string trace_path;  ///< REBOOTING_TRACE: Chrome trace-event timeline
  bool report = false;     ///< REBOOTING_TELEMETRY set and not "0": stderr
};
const EnvSinks* g_env_sinks = nullptr;

/// The atexit hook. The trace goes first: its export folds dropped events
/// into the registry (trace.dropped_events), which the telemetry sinks show.
void flush_env_sinks() {
  const EnvSinks& env = *g_env_sinks;
  if (!env.trace_path.empty()) {
    const TraceRecorder& recorder = TraceRecorder::instance();
    if (recorder.write_json(env.trace_path)) {
      std::uint64_t events = 0;
      const auto timelines = recorder.snapshot();
      for (const auto& tl : timelines) events += tl.events.size();
      std::fprintf(stderr,
                   "trace: wrote %llu event(s) from %zu thread(s) to %s"
                   " (%llu dropped)\n",
                   static_cast<unsigned long long>(events), timelines.size(),
                   env.trace_path.c_str(),
                   static_cast<unsigned long long>(recorder.dropped_events()));
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   env.trace_path.c_str());
    }
  }
  const Telemetry& telemetry = Telemetry::instance();
  if (!env.json_path.empty() && !telemetry.write_json(env.json_path))
    std::fprintf(stderr, "telemetry: failed to write JSON to %s\n",
                 env.json_path.c_str());
  if (env.report) std::fputs(telemetry.report().c_str(), stderr);
}

/// Env-driven setup, run during static initialization of any binary linking
/// the telemetry object (every workbench binary does, through the
/// instrumented scheduler and engines). The atexit hook is what makes
///   REBOOTING_TELEMETRY_JSON=out.json ./build/bench/fig6_fast_pipeline
/// write its JSON with no code in the binary itself, and
///   REBOOTING_TRACE=out.trace.json ./build/examples/quickstart
/// capture a Chrome trace-event timeline the same way.
struct EnvInit {
  EnvInit() {
    const auto env = [](const char* name) {
      const char* value = std::getenv(name);
      return std::string(value != nullptr ? value : "");
    };
    const std::string on = env("REBOOTING_TELEMETRY");
    EnvSinks sinks{env("REBOOTING_TELEMETRY_JSON"), env("REBOOTING_TRACE"),
                   !on.empty() && on != "0"};
    if (sinks.json_path.empty() && sinks.trace_path.empty() && !sinks.report)
      return;
    if (!sinks.trace_path.empty()) TraceRecorder::set_enabled(true);
    // Tracing implies telemetry: the counter tracks sample the registry's
    // gauges, and the per-job scheduler metrics annotate the timeline.
    Telemetry::set_enabled(true);
    g_env_sinks = new EnvSinks(std::move(sinks));
    std::atexit(flush_env_sinks);
  }
};
const EnvInit env_init;

}  // namespace

const SpanNode* SpanNode::find(std::string_view name) const {
  for (const auto& child : children_)
    if (child->name() == name) return child.get();
  return nullptr;
}

SpanNode* SpanNode::find_or_add(std::string_view name) {
  for (const auto& child : children_)
    if (child->name() == name) return child.get();
  children_.push_back(std::make_unique<SpanNode>(std::string(name)));
  return children_.back().get();
}

Telemetry& Telemetry::instance() {
  // Intentionally leaked: atexit flush hooks and spans in static destructors
  // must never observe a destroyed instance.
  static Telemetry* const inst = new Telemetry();
  return *inst;
}

SpanNode* Telemetry::begin_span(std::string_view name) {
  const std::lock_guard<std::mutex> lock(span_mutex_);
  SpanNode* parent = t_current != nullptr ? t_current : &root_;
  SpanNode* node = parent->find_or_add(name);
  t_current = node;
  return node;
}

void Telemetry::end_span(SpanNode* node, SpanNode* parent,
                         Real elapsed_seconds) {
  const std::lock_guard<std::mutex> lock(span_mutex_);
  SpanStats& s = node->stats_;
  if (s.count == 0) {
    s.min_seconds = s.max_seconds = elapsed_seconds;
  } else {
    s.min_seconds = std::min(s.min_seconds, elapsed_seconds);
    s.max_seconds = std::max(s.max_seconds, elapsed_seconds);
  }
  ++s.count;
  s.total_seconds += elapsed_seconds;
  t_current = parent;
}

void Telemetry::reset() {
  const std::lock_guard<std::mutex> lock(span_mutex_);
  root_.children_.clear();
  root_.stats_ = SpanStats{};
  t_current = nullptr;
  metrics_.reset();
}

SpanNode* Span::current() { return t_current; }

}  // namespace rebooting::telemetry
