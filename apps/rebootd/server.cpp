#include "rebootd/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cache.h"
#include "rebootd/workloads.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace rebooting::rebootd {

namespace {

sched::SchedulerConfig scheduler_config(const ServerConfig& config) {
  sched::SchedulerConfig sc;
  sc.queue_capacity = config.queue_capacity;
  // kReject, never kBlock: a reader thread must answer "overloaded" and move
  // to its next frame, not sleep inside submit holding the connection.
  sc.backpressure = sched::BackpressurePolicy::kReject;
  sc.breaker.failure_threshold = config.breaker_threshold;
  // Every rebootd workload is self-contained (cpu_fallback is uniformly on),
  // so jobs are marked stealable and idle pools may drain overloaded ones.
  sc.work_stealing = true;
  sc.pin_workers = config.pin_workers;
  return sc;
}

/// Disposition-to-wire mapping: the reason a job never ran (or ran) is the
/// client's typed outcome.
net::Status status_of(const core::JobResult& result) {
  switch (result.disposition) {
    case core::JobDisposition::kExecuted:
      return result.ok ? net::Status::kOk : net::Status::kFailed;
    case core::JobDisposition::kRejected:
    case core::JobDisposition::kShed:
      return net::Status::kOverloaded;
    case core::JobDisposition::kFlushed:
      return net::Status::kShuttingDown;
    case core::JobDisposition::kDeadlineMissed:
      return net::Status::kDeadlineMissed;
    case core::JobDisposition::kCancelled:
      return net::Status::kCancelled;
  }
  return net::Status::kError;
}

core::JsonValue json_of_pool(const sched::PoolStats& pool) {
  core::JsonValue::Members m;
  const auto num = [](std::size_t v) {
    return core::JsonValue::make_number(static_cast<core::Real>(v));
  };
  m.emplace_back("workers", num(pool.workers));
  m.emplace_back("queue_depth", num(pool.queue_depth));
  m.emplace_back("queue_capacity", num(pool.queue_capacity));
  m.emplace_back("in_flight", num(pool.in_flight));
  m.emplace_back("jobs_completed", num(pool.jobs_completed));
  m.emplace_back("busy_seconds",
                 core::JsonValue::make_number(pool.busy_seconds));
  m.emplace_back("breakers_open", num(pool.breakers_open));
  return core::JsonValue::make_object(std::move(m));
}

/// One object per registered result cache (DESIGN.md §14): the compile,
/// DMM-solve, and scheduler-memo caches each report their counters, keyed by
/// their registry name.
core::JsonValue json_of_caches() {
  const auto num = [](std::uint64_t v) {
    return core::JsonValue::make_number(static_cast<core::Real>(v));
  };
  core::JsonValue::Members caches;
  for (const auto& [name, stats] : core::cache_stats_snapshot()) {
    core::JsonValue::Members c;
    c.emplace_back("hits", num(stats.hits));
    c.emplace_back("misses", num(stats.misses));
    c.emplace_back("inserts", num(stats.inserts));
    c.emplace_back("evictions", num(stats.evictions));
    c.emplace_back("expirations", num(stats.expirations));
    c.emplace_back("entries", num(stats.entries));
    c.emplace_back("bytes", num(stats.bytes));
    caches.emplace_back(name, core::JsonValue::make_object(std::move(c)));
  }
  return core::JsonValue::make_object(std::move(caches));
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(scheduler_config(config_)),
      governor_(config_.tenancy),
      sampler_(telemetry::Telemetry::instance().metrics()) {
  if (config_.admission_high_water == 0)
    config_.admission_high_water = config_.queue_capacity;
  if (config_.enable_telemetry) telemetry::Telemetry::set_enabled(true);
  scheduler_.add_pool(core::AcceleratorKind::kClassicalCpu,
                      config_.cpu_workers, core::CpuAccelerator::factory());
}

Server::~Server() { stop(); }

void Server::add_pool(core::AcceleratorKind kind, std::size_t workers,
                      const core::AcceleratorFactory& factory) {
  scheduler_.add_pool(kind, workers, factory);
}

bool Server::start(std::string* error) {
  if (running_.exchange(true)) return true;
  if (!listener_.listen_on(config_.host, config_.port, error)) {
    running_.store(false);
    return false;
  }
  port_ = listener_.port();
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.pump_threads);
       ++i)
    pumps_.emplace_back([this, i] { pump_loop(i); });
  {
    std::lock_guard lock(watch_mutex_);
    watch_closed_ = false;
  }
  watch_thread_ = std::thread([this] { watch_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // 1. No new connections: running_ is false, so the accept loop exits at
  //    its next poll tick (<= 50 ms). Joining before close() keeps the
  //    listener fd single-threaded.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // 2. No new requests: unblock every reader's recv (write side stays open
  //    so responses already owed can still drain), then join readers.
  {
    std::lock_guard lock(readers_mutex_);
    for (auto& slot : readers_)
      if (slot.conn) slot.conn->socket.shutdown_read();
  }
  reap_readers(/*all=*/true);

  // 2b. Close the watch pump: readers are joined, so no new subscription can
  //     register. The pump exits its loop and sends each subscriber its
  //     terminal kShuttingDown frame (the subscription's one *response*)
  //     before the thread returns; the subscribers' Connection shared_ptrs
  //     keep the write sides alive until then.
  {
    std::lock_guard lock(watch_mutex_);
    watch_closed_ = true;
  }
  watch_cv_.notify_all();
  if (watch_thread_.joinable()) watch_thread_.join();

  // 3. Settle every accepted job: in-flight work finishes, queued work is
  //    flushed (kFlushed -> kShuttingDown on the wire). After this, every
  //    Pending future is ready.
  scheduler_.shutdown();

  // 4. Drain the pumps; they exit once the deque is empty and closed.
  {
    std::lock_guard lock(pending_mutex_);
    pending_closed_ = true;
  }
  pending_cv_.notify_all();
  for (auto& pump : pumps_)
    if (pump.joinable()) pump.join();
  pumps_.clear();
}

void Server::accept_loop() {
  telemetry::TraceRecorder::instance().set_thread_name("net accept");
  std::uint64_t conn_id = 0;
  while (running_.load(std::memory_order_acquire)) {
    net::Socket socket = listener_.accept(/*timeout_ms=*/50);
    reap_readers(/*all=*/false);
    if (!socket.valid()) continue;
    TELEM_COUNT("net.connections");
    auto conn = std::make_shared<Connection>();
    conn->socket = std::move(socket);
    std::lock_guard lock(readers_mutex_);
    auto& slot = readers_.emplace_back();
    slot.conn = conn;
    ReaderSlot* slot_ptr = &slot;
    const std::uint64_t id = ++conn_id;
    slot.thread = std::thread([this, conn, id, slot_ptr] {
      reader_loop(conn, id);
      slot_ptr->done.store(true, std::memory_order_release);
    });
  }
}

void Server::reap_readers(bool all) {
  std::list<ReaderSlot> finished;
  {
    std::lock_guard lock(readers_mutex_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (all || it->done.load(std::memory_order_acquire)) {
        finished.splice(finished.end(), readers_, it++);
      } else {
        ++it;
      }
    }
  }
  for (auto& slot : finished)
    if (slot.thread.joinable()) slot.thread.join();
}

void Server::reader_loop(std::shared_ptr<Connection> conn,
                         std::uint64_t conn_id) {
  telemetry::TraceRecorder::instance().set_thread_name(
      "net reader " + std::to_string(conn_id));
  TELEM_GAUGE("net.connections_active",
              static_cast<core::Real>(
                  active_connections_.fetch_add(1, std::memory_order_relaxed) +
                  1));
  std::string frame;
  while (running_.load(std::memory_order_acquire)) {
    const net::FrameRead read =
        net::read_frame(conn->socket, &frame, config_.max_frame_bytes);
    if (read == net::FrameRead::kEof) break;
    if (read == net::FrameRead::kError) {
      // Mid-frame disconnect; anything already submitted still completes,
      // its write just fails against the dead socket.
      TELEM_COUNT("net.frame_errors");
      break;
    }
    if (read == net::FrameRead::kOversized) {
      TELEM_COUNT("net.frame_oversized");
      net::Response resp;
      resp.status = net::Status::kBadRequest;
      resp.summary = "frame exceeds " +
                     std::to_string(config_.max_frame_bytes) + " bytes";
      send_response(conn, resp);
      break;  // the unread body makes the stream unparseable; hang up
    }
    TELEM_COUNT("net.bytes_in", static_cast<core::Real>(frame.size() + 4));
    if (!handle_frame(conn, frame)) break;
  }
  // Note: the reader does NOT mark the connection closed — during stop() the
  // read side is shut down while pumps still owe responses on the write
  // side. `open` flips only when a write actually fails.
  TELEM_GAUGE("net.connections_active",
              static_cast<core::Real>(
                  active_connections_.fetch_sub(1, std::memory_order_relaxed) -
                  1));
}

bool Server::handle_frame(const std::shared_ptr<Connection>& conn,
                          const std::string& frame) {
  TELEM_TRACE_SCOPE("net.recv");
  std::string error;
  const auto req = net::decode_request(frame, &error);
  if (!req) {
    // The framing is intact, so the connection stays usable; only this
    // request is unanswerable by id (we may not have one) — reply id 0.
    TELEM_COUNT("net.bad_request");
    net::Response resp;
    resp.status = net::Status::kBadRequest;
    resp.summary = error;
    send_response(conn, resp);
    return true;
  }
  TELEM_COUNT("net.requests");

  if (req->method == "ping") {
    net::Response resp;
    resp.id = req->id;
    resp.trace_id = req->trace_id;
    resp.status = net::Status::kOk;
    resp.summary = "pong";
    send_response(conn, resp);
    return true;
  }
  if (req->method == "status") {
    send_response(conn, status_response(*req));
    return true;
  }
  if (req->method == "metrics") {
    net::Response resp;
    resp.id = req->id;
    resp.trace_id = req->trace_id;
    resp.status = net::Status::kOk;
    resp.summary = "metrics";
    resp.body = metrics_body();
    send_response(conn, resp);
    return true;
  }
  if (req->method == "watch") {
    handle_watch(conn, *req);
    return true;
  }
  if (req->method == "shutdown") {
    // Flag first, reply second: a client that has read this response must
    // already be able to observe shutdown_requested().
    shutdown_requested_.store(true, std::memory_order_release);
    net::Response resp;
    resp.id = req->id;
    resp.trace_id = req->trace_id;
    resp.status = net::Status::kOk;
    resp.summary = "shutdown requested";
    send_response(conn, resp);
    return true;
  }
  if (req->method == "submit") {
    const std::uint64_t rid =
        next_rid_.fetch_add(1, std::memory_order_relaxed);
    // Trace adoption: a submit carrying a client trace_id continues the
    // client's "net.request" flow chain (the client already opened it at its
    // send); a bare submit starts a server-local chain keyed by rid.
    if (req->trace_id != 0)
      TELEM_TRACE_FLOW_STEP("net.request", req->trace_id);
    else
      TELEM_TRACE_FLOW_BEGIN("net.request", rid);
    handle_submit(conn, *req, rid);
    return true;
  }

  TELEM_COUNT("net.bad_request");
  net::Response resp;
  resp.id = req->id;
  resp.trace_id = req->trace_id;
  resp.status = net::Status::kBadRequest;
  resp.summary = "unknown method '" + req->method + "'";
  send_response(conn, resp);
  return true;
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const net::Request& req, std::uint64_t rid) {
  const auto now = Clock::now();
  net::Response reject;
  reject.id = req.id;
  reject.trace_id = req.trace_id;

  if (!scheduler_.has_pool(req.kind)) {
    TELEM_COUNT("net.bad_request");
    reject.status = net::Status::kBadRequest;
    reject.summary = "no pool for kind '" + core::to_string(req.kind) + "'";
    send_response(conn, reject);
    return;
  }
  std::string error;
  auto payload = build_workload(req, &error);
  if (!payload) {
    TELEM_COUNT("net.bad_request");
    reject.status = net::Status::kBadRequest;
    reject.summary = error;
    send_response(conn, reject);
    return;
  }

  // Admission: tenant quota first (cheapest, and per-tenant fairness must
  // not depend on global load), then the queue high-water mark.
  const Admission admission = governor_.admit(req.tenant, now);
  if (!admission.admitted) {
    TELEM_COUNT("net.rejected_quota");
    reject.status = net::Status::kQuotaExceeded;
    reject.summary = "tenant '" + req.tenant + "' over quota";
    reject.retry_after_ms = admission.retry_after_ms;
    send_response(conn, reject);
    return;
  }
  if (scheduler_.queue_depth(req.kind) >= config_.admission_high_water) {
    governor_.release(req.tenant);
    TELEM_COUNT("net.rejected_overloaded");
    reject.status = net::Status::kOverloaded;
    reject.summary = "queue high-water for '" + core::to_string(req.kind) +
                     "'";
    reject.retry_after_ms = overload_retry_hint(req.kind);
    send_response(conn, reject);
    return;
  }

  sched::JobOptions opts;
  opts.priority = req.priority + admission.priority_bias;
  if (req.deadline_ms)
    opts.deadline = sched::deadline_in(std::chrono::duration_cast<
                                       sched::Clock::duration>(
        std::chrono::duration<double, std::milli>(*req.deadline_ms)));
  opts.retry.max_attempts = std::max<std::size_t>(1, config_.retry_attempts);
  opts.retry.cpu_fallback = true;  // every workload is self-contained
  opts.stealable = true;           // ...and so safe to run on any pool
  if (req.memo) {
    // Memoization identity: what runs (kind, work, params) — NOT who asked
    // (tenant) or how urgently (priority/deadline), so identical work
    // collapses across tenants. json_dump of params is canonical enough
    // here: clients that build the same params object the same way produce
    // the same member order, and a nonce member opts a request out.
    opts.memo_key = core::to_string(req.kind) + '\x1f' + req.work + '\x1f' +
                    core::json_dump(req.params);
  }

  Pending pending;
  pending.waiter = Waiter{conn, req.id, req.trace_id, now, req.tenant};
  pending.rid = rid;
  pending.flow = req.trace_id != 0 ? req.trace_id : rid;
  pending.remote = req.trace_id != 0;
  pending.kind = req.kind;
  try {
    TELEM_TRACE_SCOPE("net.enqueue");
    TELEM_TRACE_FLOW_STEP("net.request", pending.flow);
    pending.future = scheduler_.submit(
        req.tenant + "/" + req.work, req.kind, std::move(*payload), opts);
  } catch (const std::exception& e) {
    // Shutdown raced the running_ check; answer typed.
    reject.status = net::Status::kShuttingDown;
    reject.summary = e.what();
    send_response(conn, reject);
    governor_.release(req.tenant);
    return;
  }

  {
    std::lock_guard lock(pending_mutex_);
    pending_.push_back(std::move(pending));
  }
  pending_cv_.notify_one();
}

void Server::pump_loop(std::size_t index) {
  telemetry::TraceRecorder::instance().set_thread_name(
      "net pump " + std::to_string(index));
  for (;;) {
    Pending pending;
    {
      std::unique_lock lock(pending_mutex_);
      pending_cv_.wait(lock,
                       [this] { return pending_closed_ || !pending_.empty(); });
      if (pending_.empty()) return;  // closed and drained
      pending = std::move(pending_.front());
      pending_.pop_front();
    }
    complete(std::move(pending));
  }
}

void Server::complete(Pending&& pending) {
  TELEM_TRACE_SCOPE("net.reply");
  TELEM_TRACE_FLOW_STEP("net.request", pending.flow);

  net::Response resp;
  try {
    const core::JobResult result = pending.future.get();
    resp.status = status_of(result);
    resp.summary = result.summary;
    resp.attempts = result.attempts;
    resp.degraded = result.degraded;
    resp.wall_seconds = result.wall_seconds;
    resp.metrics = result.metrics;
    if (resp.status == net::Status::kOverloaded)
      resp.retry_after_ms = overload_retry_hint(pending.kind);
  } catch (const std::exception& e) {
    resp.status = net::Status::kError;
    resp.summary = e.what();
  }

  const Waiter& waiter = pending.waiter;
  resp.id = waiter.wire_id;
  resp.trace_id = waiter.trace_id;
  const auto now = Clock::now();
  send_response(waiter.conn, resp);
  TELEM_RECORD(
      "net.request_seconds",
      std::chrono::duration<core::Real>(now - waiter.received).count());
  governor_.release(waiter.tenant);
  // A remote chain is closed by the client's recv; ending it here too would
  // give the flow two heads in the merged view.
  if (pending.remote)
    TELEM_TRACE_FLOW_STEP("net.request", pending.flow);
  else
    TELEM_TRACE_FLOW_END("net.request", pending.flow);
}

void Server::send_response(const std::shared_ptr<Connection>& conn,
                           const net::Response& resp) {
  const std::string frame = net::encode_response(resp);
  std::lock_guard lock(conn->write_mutex);
  if (!conn->open.load(std::memory_order_acquire)) return;
  if (!net::write_frame(conn->socket, frame)) {
    conn->open.store(false, std::memory_order_release);
    return;
  }
  TELEM_COUNT("net.responses");
  TELEM_COUNT("net.bytes_out", static_cast<core::Real>(frame.size() + 4));
}

double Server::overload_retry_hint(core::AcceleratorKind kind) const {
  // Estimate how long the backlog ahead of the client takes to drain: the
  // queued jobs of this kind run in `depth / workers` waves, each wave
  // costing the observed mean service time (1 ms floor before any job has
  // completed). A client that honors the hint re-arrives roughly when the
  // high-water mark clears instead of hammering a fixed 1 ms backoff.
  std::size_t depth = 0;
  std::size_t workers = 1;
  try {
    const sched::PoolStats stats = scheduler_.stats(kind);
    depth = stats.queue_depth;
    workers = std::max<std::size_t>(1, stats.workers);
  } catch (const std::out_of_range&) {
    // Pool vanished between the check and the hint; fall through to floor.
  }
  double mean_ms = 1.0;
  if (telemetry::Telemetry::enabled()) {
    const telemetry::HistogramSnapshot service =
        telemetry::Telemetry::instance().metrics().histogram(
            "sched.service_seconds");
    if (service.count > 0) mean_ms = std::max(1.0e-3, service.mean() * 1.0e3);
  }
  const double waves =
      std::ceil(static_cast<double>(depth) / static_cast<double>(workers));
  return std::max(1.0, waves * mean_ms);
}

net::Response Server::status_response(const net::Request& req) const {
  net::Response resp;
  resp.id = req.id;
  resp.trace_id = req.trace_id;
  resp.status = net::Status::kOk;
  resp.summary = "status";

  const sched::SchedulerStats stats = scheduler_.stats();
  core::JsonValue::Members body;
  body.emplace_back("accepting", core::JsonValue::make_bool(stats.accepting));
  body.emplace_back("submitted",
                    core::JsonValue::make_number(
                        static_cast<core::Real>(stats.submitted)));
  body.emplace_back("outstanding",
                    core::JsonValue::make_number(
                        static_cast<core::Real>(stats.outstanding)));

  // Time-slicing counters (DESIGN.md §12): slices executed, preemptions,
  // resumes, and cross-pool steals since the scheduler started.
  core::JsonValue::Members sched;
  sched.emplace_back("slices", core::JsonValue::make_number(
                                   static_cast<core::Real>(stats.slices)));
  sched.emplace_back("preempts", core::JsonValue::make_number(
                                     static_cast<core::Real>(stats.preempts)));
  sched.emplace_back("resumes", core::JsonValue::make_number(
                                    static_cast<core::Real>(stats.resumes)));
  sched.emplace_back("steals", core::JsonValue::make_number(
                                   static_cast<core::Real>(stats.steals)));
  sched.emplace_back("memo_hits",
                     core::JsonValue::make_number(
                         static_cast<core::Real>(stats.memo_hits)));
  sched.emplace_back("memo_riders",
                     core::JsonValue::make_number(
                         static_cast<core::Real>(stats.memo_riders)));
  body.emplace_back("sched", core::JsonValue::make_object(std::move(sched)));
  body.emplace_back("cache", json_of_caches());

  core::JsonValue::Members pools;
  for (const auto& [kind, pool] : stats.pools)
    pools.emplace_back(core::to_string(kind), json_of_pool(pool));
  body.emplace_back("pools", core::JsonValue::make_object(std::move(pools)));

  core::JsonValue::Members tenants;
  for (const auto& [tenant, ts] : governor_.stats()) {
    core::JsonValue::Members t;
    t.emplace_back("in_flight",
                   core::JsonValue::make_number(
                       static_cast<core::Real>(ts.in_flight)));
    t.emplace_back("admitted",
                   core::JsonValue::make_number(
                       static_cast<core::Real>(ts.admitted)));
    t.emplace_back("rejected",
                   core::JsonValue::make_number(
                       static_cast<core::Real>(ts.rejected)));
    tenants.emplace_back(tenant, core::JsonValue::make_object(std::move(t)));
  }
  body.emplace_back("tenants",
                    core::JsonValue::make_object(std::move(tenants)));

  // Server-side latency quantiles — what loadgen prints as the soak gate.
  const auto& registry = telemetry::Telemetry::instance().metrics();
  const telemetry::HistogramSnapshot latency =
      registry.histogram("net.request_seconds");
  core::JsonValue::Members lat;
  lat.emplace_back("count", core::JsonValue::make_number(
                                static_cast<core::Real>(latency.count)));
  lat.emplace_back("mean_seconds",
                   core::JsonValue::make_number(latency.mean()));
  lat.emplace_back("p50_seconds",
                   core::JsonValue::make_number(latency.quantile(0.5)));
  lat.emplace_back("p99_seconds",
                   core::JsonValue::make_number(latency.quantile(0.99)));
  body.emplace_back("latency", core::JsonValue::make_object(std::move(lat)));

  core::JsonValue::Members counters;
  for (const char* name :
       {"net.connections", "net.requests", "net.responses",
        "net.rejected_overloaded", "net.rejected_quota", "net.bad_request",
        "net.frame_errors", "net.frame_oversized", "net.bytes_in",
        "net.bytes_out"})
    counters.emplace_back(
        name, core::JsonValue::make_number(registry.counter(name)));
  body.emplace_back("counters",
                    core::JsonValue::make_object(std::move(counters)));

  resp.body = core::JsonValue::make_object(std::move(body));
  return resp;
}

core::JsonValue Server::metrics_body() {
  const auto num = [](core::Real v) { return core::JsonValue::make_number(v); };

  const telemetry::MetricsSample sample = sampler_.tick();
  const telemetry::MetricsRates rates = sampler_.rates();

  core::JsonValue::Members body;
  body.emplace_back("t_seconds", num(sample.t_seconds));

  core::JsonValue::Members counters;
  for (const auto& [name, value] : sample.counters)
    counters.emplace_back(name, num(value));
  body.emplace_back("counters",
                    core::JsonValue::make_object(std::move(counters)));

  core::JsonValue::Members gauges;
  for (const auto& [name, value] : sample.gauges)
    gauges.emplace_back(name, num(value));
  body.emplace_back("gauges", core::JsonValue::make_object(std::move(gauges)));

  // Counter deltas over the last sampling interval, normalized to /s — the
  // "is it busy right now" signal a monotonic counter cannot give.
  core::JsonValue::Members rate_members;
  rate_members.emplace_back("dt_seconds", num(rates.dt_seconds));
  core::JsonValue::Members per_second;
  for (const auto& [name, value] : rates.per_second)
    per_second.emplace_back(name, num(value));
  rate_members.emplace_back("per_second",
                            core::JsonValue::make_object(std::move(per_second)));
  body.emplace_back("rates",
                    core::JsonValue::make_object(std::move(rate_members)));

  core::JsonValue::Members histograms;
  for (const auto& [name, h] : sample.histograms) {
    core::JsonValue::Members hm;
    hm.emplace_back("count", num(static_cast<core::Real>(h.count)));
    hm.emplace_back("mean", num(h.mean()));
    hm.emplace_back("p50", num(h.quantile(0.5)));
    hm.emplace_back("p90", num(h.quantile(0.9)));
    hm.emplace_back("p99", num(h.quantile(0.99)));
    hm.emplace_back("max", num(h.max));
    histograms.emplace_back(name, core::JsonValue::make_object(std::move(hm)));
  }
  body.emplace_back("histograms",
                    core::JsonValue::make_object(std::move(histograms)));

  const sched::SchedulerStats stats = scheduler_.stats();
  body.emplace_back("accepting", core::JsonValue::make_bool(stats.accepting));
  body.emplace_back("outstanding",
                    num(static_cast<core::Real>(stats.outstanding)));
  core::JsonValue::Members sched;
  sched.emplace_back("slices", num(static_cast<core::Real>(stats.slices)));
  sched.emplace_back("preempts", num(static_cast<core::Real>(stats.preempts)));
  sched.emplace_back("resumes", num(static_cast<core::Real>(stats.resumes)));
  sched.emplace_back("steals", num(static_cast<core::Real>(stats.steals)));
  sched.emplace_back("memo_hits",
                     num(static_cast<core::Real>(stats.memo_hits)));
  sched.emplace_back("memo_riders",
                     num(static_cast<core::Real>(stats.memo_riders)));
  body.emplace_back("sched", core::JsonValue::make_object(std::move(sched)));
  body.emplace_back("cache", json_of_caches());

  core::JsonValue::Members pools;
  for (const auto& [kind, pool] : stats.pools)
    pools.emplace_back(core::to_string(kind), json_of_pool(pool));
  body.emplace_back("pools", core::JsonValue::make_object(std::move(pools)));

  return core::JsonValue::make_object(std::move(body));
}

void Server::handle_watch(const std::shared_ptr<Connection>& conn,
                          const net::Request& req) {
  double interval_ms = 500.0;
  if (req.params.is_object() && req.params.contains("interval_ms")) {
    const core::JsonValue& v = req.params.at("interval_ms");
    if (v.type() != core::JsonValue::Type::kNumber) {
      net::Response resp;
      resp.id = req.id;
      resp.trace_id = req.trace_id;
      resp.status = net::Status::kBadRequest;
      resp.summary = "watch params.interval_ms must be a number";
      send_response(conn, resp);
      return;
    }
    interval_ms = v.number();
  }
  interval_ms = std::min(60000.0, std::max(20.0, interval_ms));

  // First frame synchronously, so `rebootctl top --once` gets its answer in
  // one round trip instead of one watch interval.
  net::Response first;
  first.id = req.id;
  first.trace_id = req.trace_id;
  first.status = net::Status::kOk;
  first.summary = "watch";
  first.streaming = true;
  first.body = metrics_body();
  send_response(conn, first);

  WatchSub sub;
  sub.conn = conn;
  sub.wire_id = req.id;
  sub.trace_id = req.trace_id;
  sub.interval_ms = interval_ms;
  sub.next_due = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        interval_ms));
  {
    std::lock_guard lock(watch_mutex_);
    if (watch_closed_) {
      // stop() already passed the watch teardown; answer terminally now
      // rather than registering a subscriber nobody will ever close.
      net::Response resp;
      resp.id = req.id;
      resp.trace_id = req.trace_id;
      resp.status = net::Status::kShuttingDown;
      resp.summary = "watch closed: server stopping";
      send_response(conn, resp);
      return;
    }
    watchers_.push_back(std::move(sub));
  }
  watch_cv_.notify_all();
  TELEM_COUNT("net.watch_subscribed");
}

void Server::watch_loop() {
  telemetry::TraceRecorder::instance().set_thread_name("net watch");
  std::unique_lock lock(watch_mutex_);
  while (!watch_closed_) {
    if (watchers_.empty()) {
      watch_cv_.wait(lock,
                     [this] { return watch_closed_ || !watchers_.empty(); });
      continue;
    }
    Clock::time_point due = watchers_.front().next_due;
    for (const WatchSub& sub : watchers_) due = std::min(due, sub.next_due);
    if (watch_cv_.wait_until(lock, due, [this] { return watch_closed_; }))
      break;

    const auto now = Clock::now();
    bool any_due = false;
    for (const WatchSub& sub : watchers_)
      any_due = any_due || sub.next_due <= now;
    if (!any_due) continue;  // spurious wake or a new earlier subscriber

    // One sampler tick serves every due subscriber this wake; ticking per
    // subscriber would skew rates with near-zero dt samples.
    const core::JsonValue body = metrics_body();
    for (WatchSub& sub : watchers_) {
      if (sub.next_due > now) continue;
      net::Response frame;
      frame.id = sub.wire_id;
      frame.trace_id = sub.trace_id;
      frame.status = net::Status::kOk;
      frame.summary = "watch";
      frame.streaming = true;
      frame.body = body;
      send_response(sub.conn, frame);
      const auto interval = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(sub.interval_ms));
      // Re-anchor on `now`: a stalled pump catches up with one frame, not a
      // burst of back-dated ones.
      sub.next_due = now + interval;
    }
    // A failed push (send_response flipped conn->open) ends the
    // subscription; its client is gone, nobody is owed the terminal frame.
    watchers_.erase(
        std::remove_if(watchers_.begin(), watchers_.end(),
                       [](const WatchSub& sub) {
                         return !sub.conn->open.load(
                             std::memory_order_acquire);
                       }),
        watchers_.end());
  }

  // Teardown: one terminal (non-streaming) frame per surviving subscriber —
  // the stream's single *response* in the accounting sense.
  for (const WatchSub& sub : watchers_) {
    net::Response resp;
    resp.id = sub.wire_id;
    resp.trace_id = sub.trace_id;
    resp.status = net::Status::kShuttingDown;
    resp.summary = "watch closed: server stopping";
    send_response(sub.conn, resp);
  }
  watchers_.clear();
}

}  // namespace rebooting::rebootd
