// Per-event trace recorder: the timeline counterpart of the aggregated span
// tree in telemetry.h.
//
// TELEM_SPAN folds every execution of a path into one count/total/min/max
// node — it can say that `dmm.solve` took 40 ms total, but not where the
// queueing gaps, worker idle bubbles, or replica assignments were. This
// recorder keeps the individual events: every instrumented point appends one
// fixed-size TraceEvent to a lock-free ring buffer owned by the calling
// thread, and the exporter renders all buffers as Chrome trace-event JSON
// (the `{"traceEvents":[...]}` array format), loadable in ui.perfetto.dev or
// chrome://tracing.
//
// Event vocabulary (macro family at the bottom of this header):
//
//   TELEM_TRACE_SCOPE(name)            B/E slice pair for the enclosing scope
//   TELEM_TRACE_SCOPE_ID(name, id)     same, annotated with a numeric id
//                                      (replica index, trajectory index)
//   TELEM_TRACE_INSTANT(name)          zero-duration marker on this thread
//   TELEM_TRACE_COUNTER(name, value)   one sample of a numeric track
//   TELEM_TRACE_FLOW_BEGIN/STEP/END(name, id)
//                                      arrow chain across threads (e.g. the
//                                      scheduler's submit -> dequeue ->
//                                      complete per job id). Flow events bind
//                                      to the innermost open slice, so emit
//                                      them inside a TELEM_TRACE_SCOPE.
//
// Cost discipline (same as TELEM_SPAN, gated in bench/trace_overhead.cpp):
// every macro first reads one relaxed atomic bool — disabled tracing is a
// load + branch, < 2 ns. Enabled, an event is one steady_clock read plus one
// 48-byte store into the thread's ring: no locks, no allocation (< 100 ns).
// The ring is fixed-capacity and overwrites its oldest entries; overwritten
// events are counted, surfaced as `trace.dropped_events` in the metrics
// registry and as `otherData.dropped_events` in the export, so truncation is
// never silent.
//
// Names passed to the macros must have static storage duration (string
// literals); dynamic names (job names, gauge names) go through
// TraceRecorder::intern(), which returns a stable pointer.
//
// Activation mirrors telemetry: programmatic via TraceRecorder::set_enabled,
// or  REBOOTING_TRACE=out.trace.json  which enables telemetry + tracing and
// writes the export at process exit (env hook lives in telemetry.cpp).
//
// Thread safety: the hot path is single-writer per ring (the owning thread)
// and wait-free. snapshot()/to_json()/reset() require quiescence: no thread
// may be emitting while they run (disable tracing and join or drain workers
// first — the natural order at process exit and in tests).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace rebooting::telemetry {

namespace detail {
/// The tracing on/off switch, independent of the span/metrics switch so a
/// timeline can be captured without paying for aggregation (and vice versa).
/// Out-of-line storage lives in trace.cpp.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Maps 1:1 onto Chrome trace-event phases:
/// B/E (slice begin/end), i (instant), C (counter), s/t/f (flow).
enum class TraceEventType : std::uint8_t {
  kBegin,
  kEnd,
  kInstant,
  kCounter,
  kFlowBegin,
  kFlowStep,
  kFlowEnd,
};

/// "No id" sentinel for the TraceEvent::id field.
inline constexpr std::uint64_t kNoTraceId = ~std::uint64_t{0};

/// One fixed-size ring slot. `name`/`cat` must point at storage that outlives
/// the recorder (literals or interned strings).
struct TraceEvent {
  std::int64_t ts_ns = 0;  ///< steady-clock ns since the recorder's epoch
  const char* name = nullptr;
  const char* cat = nullptr;
  std::uint64_t id = kNoTraceId;  ///< flow id or numeric annotation
  double value = 0.0;             ///< counter sample
  TraceEventType type = TraceEventType::kInstant;
};

/// One thread's ring. Single writer (the owning thread); the write cursor is
/// published with release stores so a quiescent-time reader sees complete
/// slots. Overwrite-oldest: push never blocks and never allocates.
class TraceRing {
 public:
  TraceRing(std::size_t capacity_pow2, std::size_t tid, std::string name);

  void push(const TraceEvent& ev) {
    const std::uint64_t w = written_.load(std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(w) & mask_] = ev;
    written_.store(w + 1, std::memory_order_release);
  }

  /// Total events ever pushed (monotone; may exceed capacity).
  std::uint64_t written() const {
    return written_.load(std::memory_order_acquire);
  }
  /// Events lost to overwrite-oldest so far.
  std::uint64_t dropped() const {
    const std::uint64_t w = written();
    return w > slots_.size() ? w - slots_.size() : 0;
  }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t tid() const { return tid_; }

 private:
  friend class TraceRecorder;

  std::vector<TraceEvent> slots_;
  std::size_t mask_;  ///< capacity - 1 (capacity is a power of two)
  std::atomic<std::uint64_t> written_{0};
  std::size_t tid_;
  std::string thread_name_;  ///< guarded by the recorder's registry mutex
};

/// Quiescent-time copy of one thread's surviving events, oldest first.
struct ThreadTimeline {
  std::size_t tid = 0;
  std::string thread_name;
  std::uint64_t written = 0;
  std::uint64_t dropped = 0;
  std::vector<TraceEvent> events;
};

/// Process-wide recorder: owns every thread's ring (rings are kept alive
/// until reset so the exporter can read buffers of exited threads), the
/// interning table, and the exporter. Meyers-style never-destroyed singleton,
/// like Telemetry.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  static bool enabled() { return trace_enabled(); }
  static void set_enabled(bool on) {
    detail::g_trace_enabled.store(on, std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring (registering the ring on
  /// first use). Callers must check trace_enabled() first — the macros do.
  void emit(TraceEventType type, const char* name, const char* cat = nullptr,
            std::uint64_t id = kNoTraceId, double value = 0.0);

  /// Copies `name` into the recorder-lifetime interning table and returns a
  /// stable pointer, suitable for TraceEvent::name/cat. Mutex-guarded slow
  /// path — use for low-rate dynamic names (job names, gauge names), not in
  /// per-step loops.
  const char* intern(std::string_view name);

  /// Names the calling thread in the export ("quantum worker 0"). While
  /// tracing is enabled this registers the thread's ring immediately, so
  /// named-but-idle threads still appear; while disabled the name is parked
  /// thread-locally and applied if the thread ever emits.
  void set_thread_name(std::string name);

  /// Capacity (events, rounded up to a power of two) of rings registered
  /// from now on; existing rings keep theirs. Seeded from
  /// REBOOTING_TRACE_BUFFER when set, else kDefaultRingCapacity.
  void set_ring_capacity(std::size_t events);
  std::size_t ring_capacity() const;

  /// Sum of dropped() over all registered rings.
  std::uint64_t dropped_events() const;

  /// Wall-clock (system_clock, Unix ns) instant corresponding to ts_ns == 0.
  /// Exported as otherData.epoch_unix_ns so scripts/trace_merge.py can align
  /// timelines captured by *different processes* (each process's steady
  /// clock has its own origin) onto one shared axis before stitching their
  /// flow arrows together.
  std::int64_t epoch_unix_ns() const { return epoch_unix_ns_; }

  /// Quiescent-time copy of every ring, in registration order.
  std::vector<ThreadTimeline> snapshot() const;

  /// The Chrome trace-event JSON document ({"traceEvents":[...]}). Folds
  /// dropped_events() into the metrics registry as `trace.dropped_events`.
  std::string to_json() const;
  /// Writes to_json() to `path`; returns false on I/O failure. With
  /// REBOOTING_TRACE set, telemetry.cpp's exit hook calls this.
  bool write_json(const std::string& path) const;

  /// Drops all rings, interned names, and thread registrations. Requires
  /// quiescence, like snapshot(). Threads re-register on their next event.
  void reset();

  static constexpr std::size_t kDefaultRingCapacity = 16384;

 private:
  TraceRecorder();

  TraceRing* ring_for_this_thread();

  std::int64_t epoch_ns_;       ///< steady-clock origin of every ts_ns
  std::int64_t epoch_unix_ns_;  ///< wall-clock instant of that origin

  mutable std::mutex registry_mutex_;
  std::vector<std::shared_ptr<TraceRing>> rings_;
  std::set<std::string, std::less<>> interned_;
  std::atomic<std::size_t> ring_capacity_;
  std::atomic<std::uint64_t> epoch_;  ///< bumped by reset(); invalidates TLS
};

/// RAII B/E slice pair. The macro form passes a literal; instrumentation with
/// runtime names passes an interned pointer (nullptr disables the scope).
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* cat = nullptr,
                      std::uint64_t id = kNoTraceId) {
    if (!trace_enabled() || name == nullptr) return;
    name_ = name;
    cat_ = cat;
    id_ = id;
    TraceRecorder::instance().emit(TraceEventType::kBegin, name, cat, id);
  }

  ~TraceScope() {
    if (name_ != nullptr)
      TraceRecorder::instance().emit(TraceEventType::kEnd, name_, cat_, id_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_ = nullptr;
  const char* cat_ = nullptr;
  std::uint64_t id_ = kNoTraceId;
};

/// One sample of the counter track `name` (interned — callable with dynamic
/// names such as gauge keys).
void trace_counter_named(const std::string& name, double value);

}  // namespace rebooting::telemetry

#define REBOOTING_TRACE_CONCAT_(a, b) a##b
#define REBOOTING_TRACE_CONCAT(a, b) REBOOTING_TRACE_CONCAT_(a, b)

/// B/E slice for the rest of the enclosing scope.
#define TELEM_TRACE_SCOPE(name)                         \
  ::rebooting::telemetry::TraceScope REBOOTING_TRACE_CONCAT( \
      rebooting_trace_scope_, __LINE__)(name)

/// B/E slice annotated with a numeric id (args.id in the export).
#define TELEM_TRACE_SCOPE_ID(name, id)                  \
  ::rebooting::telemetry::TraceScope REBOOTING_TRACE_CONCAT( \
      rebooting_trace_scope_, __LINE__)(                \
      name, nullptr, static_cast<std::uint64_t>(id))

/// Zero-duration marker on the calling thread's track.
#define TELEM_TRACE_INSTANT(name)                                      \
  do {                                                                 \
    if (::rebooting::telemetry::trace_enabled())                       \
      ::rebooting::telemetry::TraceRecorder::instance().emit(          \
          ::rebooting::telemetry::TraceEventType::kInstant, name);     \
  } while (0)

/// One sample of the counter track `name`. The name must be a literal; use
/// trace_counter_named() for dynamic names.
#define TELEM_TRACE_COUNTER(name, value)                               \
  do {                                                                 \
    if (::rebooting::telemetry::trace_enabled())                       \
      ::rebooting::telemetry::TraceRecorder::instance().emit(          \
          ::rebooting::telemetry::TraceEventType::kCounter, name,      \
          nullptr, ::rebooting::telemetry::kNoTraceId,                 \
          static_cast<double>(value));                                 \
  } while (0)

#define REBOOTING_TRACE_FLOW_(phase, name, id)                         \
  do {                                                                 \
    if (::rebooting::telemetry::trace_enabled())                       \
      ::rebooting::telemetry::TraceRecorder::instance().emit(          \
          ::rebooting::telemetry::TraceEventType::phase, name, "flow", \
          static_cast<std::uint64_t>(id));                             \
  } while (0)

/// Flow arrow chain: BEGIN at the producer, STEP at each hand-off, END at the
/// consumer — all inside open TELEM_TRACE_SCOPEs, sharing (name, id).
#define TELEM_TRACE_FLOW_BEGIN(name, id) \
  REBOOTING_TRACE_FLOW_(kFlowBegin, name, id)
#define TELEM_TRACE_FLOW_STEP(name, id) \
  REBOOTING_TRACE_FLOW_(kFlowStep, name, id)
#define TELEM_TRACE_FLOW_END(name, id) \
  REBOOTING_TRACE_FLOW_(kFlowEnd, name, id)
