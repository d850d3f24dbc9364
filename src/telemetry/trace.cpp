#include "telemetry/trace.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/json.h"
#include "telemetry/telemetry.h"

namespace rebooting::telemetry {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 8;  // floor: even tiny test rings hold a few events
  while (p < n) p <<= 1;
  return p;
}

/// Per-thread recorder state. The shared_ptr keeps the ring alive across a
/// concurrent reset() (the recorder drops its reference, the thread keeps
/// writing into a detached — and ignored — ring until it notices the epoch
/// bump and re-registers).
struct Tls {
  std::shared_ptr<TraceRing> ring;
  std::uint64_t epoch = ~std::uint64_t{0};
  std::string pending_name;  ///< applied when the ring is registered
};

thread_local Tls t_trace;

/// Chrome trace-event phase letter per event type.
char phase_of(TraceEventType type) {
  switch (type) {
    case TraceEventType::kBegin: return 'B';
    case TraceEventType::kEnd: return 'E';
    case TraceEventType::kInstant: return 'i';
    case TraceEventType::kCounter: return 'C';
    case TraceEventType::kFlowBegin: return 's';
    case TraceEventType::kFlowStep: return 't';
    case TraceEventType::kFlowEnd: return 'f';
  }
  return 'i';
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity_pow2, std::size_t tid,
                     std::string name)
    : slots_(capacity_pow2),
      mask_(capacity_pow2 - 1),
      tid_(tid),
      thread_name_(std::move(name)) {}

TraceRecorder& TraceRecorder::instance() {
  // Intentionally leaked, like Telemetry: the atexit export and events fired
  // from static destructors must never observe a destroyed recorder.
  static TraceRecorder* const inst = new TraceRecorder();
  return *inst;
}

TraceRecorder::TraceRecorder()
    : epoch_ns_(steady_now_ns()),
      epoch_unix_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count()),
      ring_capacity_(kDefaultRingCapacity),
      epoch_(0) {
  if (const char* env = std::getenv("REBOOTING_TRACE_BUFFER");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) ring_capacity_.store(round_up_pow2(static_cast<std::size_t>(v)),
                                    std::memory_order_relaxed);
  }
}

TraceRing* TraceRecorder::ring_for_this_thread() {
  Tls& tls = t_trace;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tls.ring && tls.epoch == epoch) return tls.ring.get();

  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::string name = std::move(tls.pending_name);
  tls.pending_name.clear();
  if (name.empty()) name = "thread " + std::to_string(rings_.size());
  tls.ring = std::make_shared<TraceRing>(
      ring_capacity_.load(std::memory_order_relaxed), rings_.size(),
      std::move(name));
  tls.epoch = epoch;
  rings_.push_back(tls.ring);
  return tls.ring.get();
}

void TraceRecorder::emit(TraceEventType type, const char* name,
                         const char* cat, std::uint64_t id, double value) {
  TraceRing* ring = ring_for_this_thread();
  TraceEvent ev;
  ev.ts_ns = steady_now_ns() - epoch_ns_;
  ev.name = name;
  ev.cat = cat;
  ev.id = id;
  ev.value = value;
  ev.type = type;
  ring->push(ev);
}

const char* TraceRecorder::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  auto it = interned_.find(name);
  if (it == interned_.end()) it = interned_.emplace(name).first;
  // std::set node storage is stable across inserts, so c_str() pointers
  // survive until reset().
  return it->c_str();
}

void TraceRecorder::set_thread_name(std::string name) {
  Tls& tls = t_trace;
  if (tls.ring && tls.epoch == epoch_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    tls.ring->thread_name_ = std::move(name);
    return;
  }
  tls.pending_name = std::move(name);
  // While tracing, register immediately so a named-but-idle worker still
  // shows up as an (empty) track in the export.
  if (trace_enabled()) ring_for_this_thread();
}

void TraceRecorder::set_ring_capacity(std::size_t events) {
  ring_capacity_.store(round_up_pow2(events), std::memory_order_relaxed);
}

std::size_t TraceRecorder::ring_capacity() const {
  return ring_capacity_.load(std::memory_order_relaxed);
}

std::uint64_t TraceRecorder::dropped_events() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) dropped += ring->dropped();
  return dropped;
}

std::vector<ThreadTimeline> TraceRecorder::snapshot() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<ThreadTimeline> out;
  out.reserve(rings_.size());
  for (const auto& ring : rings_) {
    ThreadTimeline tl;
    tl.tid = ring->tid();
    tl.thread_name = ring->thread_name_;
    tl.written = ring->written();  // acquire: publishes the slots below
    tl.dropped = ring->dropped();
    const std::uint64_t kept =
        std::min<std::uint64_t>(tl.written, ring->capacity());
    tl.events.reserve(static_cast<std::size_t>(kept));
    for (std::uint64_t k = tl.written - kept; k < tl.written; ++k)
      tl.events.push_back(
          ring->slots_[static_cast<std::size_t>(k) & ring->mask_]);
    out.push_back(std::move(tl));
  }
  return out;
}

std::string TraceRecorder::to_json() const {
  const std::vector<ThreadTimeline> timelines = snapshot();

  std::ostringstream os;
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"rebooting-workbench\"}}";

  for (const ThreadTimeline& tl : timelines)
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << tl.tid << ",\"args\":{\"name\":" << core::json_quote(tl.thread_name)
       << "}}";

  std::uint64_t dropped = 0;
  for (const ThreadTimeline& tl : timelines) {
    dropped += tl.dropped;
    // Overwrite-oldest can clip the front of a wrapped ring mid-slice,
    // leaving end events whose begins were overwritten. Skip those orphans
    // so viewers see a clean (if truncated) timeline; the loss is already
    // accounted in dropped_events.
    std::size_t open_depth = 0;
    for (const TraceEvent& ev : tl.events) {
      if (ev.type == TraceEventType::kBegin) ++open_depth;
      if (ev.type == TraceEventType::kEnd) {
        if (open_depth == 0) continue;  // orphan from truncation
        --open_depth;
      }
      os << ",{\"name\":"
         << core::json_quote(ev.name != nullptr ? ev.name : "?")
         << ",\"cat\":"
         << core::json_quote(ev.cat != nullptr ? ev.cat : "trace")
         << ",\"ph\":\"" << phase_of(ev.type) << "\",\"pid\":1,\"tid\":"
         << tl.tid << ",\"ts\":"
         << core::json_number(static_cast<core::Real>(ev.ts_ns) / 1000.0);
      switch (ev.type) {
        case TraceEventType::kInstant:
          os << ",\"s\":\"t\"";  // thread-scoped instant
          break;
        case TraceEventType::kCounter:
          os << ",\"args\":{\"value\":" << core::json_number(ev.value) << '}';
          break;
        case TraceEventType::kFlowBegin:
        case TraceEventType::kFlowStep:
          os << ",\"id\":" << core::json_quote(std::to_string(ev.id));
          break;
        case TraceEventType::kFlowEnd:
          // bp:e binds the arrow head to the enclosing slice, not the next.
          os << ",\"id\":" << core::json_quote(std::to_string(ev.id))
             << ",\"bp\":\"e\"";
          break;
        case TraceEventType::kBegin:
        case TraceEventType::kEnd:
          if (ev.id != kNoTraceId)
            os << ",\"args\":{\"id\":"
               << core::json_number(static_cast<std::int64_t>(ev.id)) << '}';
          break;
      }
      os << '}';
    }
  }

  // epoch_unix_ns is the wall-clock instant of ts 0, as a decimal string —
  // a ns-precision Unix stamp exceeds the double mantissa, the same reason
  // checkpoint JSON carries u64s as strings.
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << core::json_number(static_cast<std::int64_t>(dropped))
     << ",\"ring_capacity\":"
     << core::json_number(static_cast<std::int64_t>(ring_capacity()))
     << ",\"epoch_unix_ns\":"
     << core::json_quote(std::to_string(epoch_unix_ns_)) << "}}";

  // Truncation is never silent: surface the loss next to the other counters.
  if (dropped > 0 && Telemetry::enabled())
    Telemetry::instance().metrics().add("trace.dropped_events",
                                        static_cast<core::Real>(dropped));
  return os.str();
}

bool TraceRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json() << '\n';
  return static_cast<bool>(out);
}

void TraceRecorder::reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  rings_.clear();
  interned_.clear();
}

void trace_counter_named(const std::string& name, double value) {
  if (!trace_enabled()) return;
  auto& recorder = TraceRecorder::instance();
  recorder.emit(TraceEventType::kCounter, recorder.intern(name), nullptr,
                kNoTraceId, value);
}

}  // namespace rebooting::telemetry
