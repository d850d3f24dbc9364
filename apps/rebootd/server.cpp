#include "rebootd/server.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cache.h"
#include "rebootd/workloads.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace rebooting::rebootd {

namespace {

/// Bytes a reader asks its socket for per read.
constexpr std::size_t kReadChunkBytes = 64 * 1024;

/// Once stop() has begun and a connection is owed nothing more, its reader
/// gives up on an outbox the peer takes no byte of for this long, so a
/// client that never reads cannot hold stop() forever.
constexpr int kStopFlushTimeoutMs = 1000;

/// Consecutive failures that open a worker's circuit breaker.
constexpr std::size_t kBreakerThreshold = 8;

sched::SchedulerConfig scheduler_config(const ServerConfig& config) {
  sched::SchedulerConfig sc;
  sc.queue_capacity = config.queue_capacity;
  // kReject, never kBlock: a reader thread must answer "overloaded" and move
  // to its next frame, not sleep inside submit holding the connection.
  sc.backpressure = sched::BackpressurePolicy::kReject;
  sc.breaker.failure_threshold = kBreakerThreshold;
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

/// The wire response for a settled job: its result, or the exception its
/// payload threw.
net::Response response_of(const core::JobResult& result,
                          const std::exception_ptr& thrown) {
  net::Response resp;
  if (thrown) {
    resp.status = net::Status::kError;
    try {
      std::rethrow_exception(thrown);
    } catch (const std::exception& e) {
      resp.summary = e.what();
    } catch (...) {
      resp.summary = "payload threw a non-standard exception";
    }
    return resp;
  }
  resp.status = status_of(result);
  resp.summary = result.summary;
  resp.attempts = result.attempts;
  resp.degraded = result.degraded;
  resp.wall_seconds = result.wall_seconds;
  resp.metrics = result.metrics;
  return resp;
}

core::JsonValue num(core::Real v) { return core::JsonValue::make_number(v); }
core::JsonValue num(std::uint64_t v) {
  return num(static_cast<core::Real>(v));
}

core::JsonValue json_of_pool(const sched::PoolStats& pool) {
  core::JsonValue::Members m;
  m.emplace_back("workers", num(pool.workers));
  m.emplace_back("queue_depth", num(pool.queue_depth));
  m.emplace_back("queue_capacity", num(pool.queue_capacity));
  m.emplace_back("in_flight", num(pool.in_flight));
  m.emplace_back("jobs_completed", num(pool.jobs_completed));
  m.emplace_back("busy_seconds", num(pool.busy_seconds));
  m.emplace_back("breakers_open", num(pool.breakers_open));
  return core::JsonValue::make_object(std::move(m));
}

/// One object per registered result cache (DESIGN.md §14): the compile,
/// DMM-solve, and scheduler-memo caches each report their counters, keyed by
/// their registry name.
core::JsonValue json_of_caches() {
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

/// The blocks `status` and `metrics` share: whether the scheduler accepts
/// work, the jobs it has outstanding, its time-slicing (DESIGN.md §12) and
/// memo counters, the result caches, and each pool.
void append_scheduler_blocks(core::JsonValue::Members& body,
                             const sched::SchedulerStats& stats) {
  body.emplace_back("accepting", core::JsonValue::make_bool(stats.accepting));
  body.emplace_back("outstanding", num(stats.outstanding));
  core::JsonValue::Members sched;
  sched.emplace_back("slices", num(stats.slices));
  sched.emplace_back("preempts", num(stats.preempts));
  sched.emplace_back("resumes", num(stats.resumes));
  sched.emplace_back("steals", num(stats.steals));
  sched.emplace_back("memo_hits", num(stats.memo_hits));
  sched.emplace_back("memo_riders", num(stats.memo_riders));
  body.emplace_back("sched", core::JsonValue::make_object(std::move(sched)));
  body.emplace_back("cache", json_of_caches());
  core::JsonValue::Members pools;
  for (const auto& [kind, pool] : stats.pools)
    pools.emplace_back(core::to_string(kind), json_of_pool(pool));
  body.emplace_back("pools", core::JsonValue::make_object(std::move(pools)));
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(scheduler_config(config_)),
      governor_(config_.tenancy) {
  if (config_.admission_high_water == 0)
    config_.admission_high_water = config_.queue_capacity;
  telemetry::Telemetry::set_enabled(true);
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
  return true;
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // 1. No new connections: running_ is false, so the accept loop exits at
  //    its next poll tick (<= 50 ms). Joining before close() keeps the
  //    listener fd single-threaded.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();

  // 2. No new requests: shut every read side and wake its reader. The
  //    reader stops reading and queues each of its watch subscriptions'
  //    terminal kShuttingDown frame (the subscription's one *response*);
  //    from then on it only writes what its connection is owed.
  {
    std::lock_guard lock(readers_mutex_);
    for (auto& slot : readers_) {
      slot.conn->socket.shutdown_read();
      slot.conn->wake.notify();
    }
  }

  // 3. Settle every accepted job: in-flight work finishes, queued work is
  //    flushed (kFlushed -> kShuttingDown on the wire). When this returns,
  //    every completion hook has queued its reply.
  scheduler_.shutdown();

  // 4. Each reader exits once its outbox is written (or after its peer took
  //    no byte for kStopFlushTimeoutMs); join them.
  reap_readers(/*all=*/true);
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
    if (!conn->wake.valid() || !conn->socket.set_nonblocking()) continue;
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
  Connection& c = *conn;
  std::string in;  // bytes read, not yet a whole frame
  // Left uninitialized: a read touches only the pages it fills.
  const std::unique_ptr<char[]> chunk(new char[kReadChunkBytes]);
  // The batch taken from the outbox: written from `written` on; frames[next]
  // is the first frame not yet written whole, and it starts at `frame_at`.
  std::string out;
  std::vector<OutFrame> frames;
  std::size_t written = 0, next = 0, frame_at = 0;
  // Writes what the socket takes; false once the peer is gone.
  const auto write_out = [&] {
    TELEM_TRACE_SCOPE("net.write");
    const long n =
        c.socket.write_some(out.data() + written, out.size() - written);
    if (n <= 0) return n == 0;
    written += static_cast<std::size_t>(n);
    const auto now = Clock::now();
    for (; next < frames.size() && frame_at + frames[next].bytes <= written;
         frame_at += frames[next++].bytes) {
      const OutFrame& frame = frames[next];
      TELEM_COUNT("net.responses");
      TELEM_COUNT("net.bytes_out", static_cast<core::Real>(frame.bytes));
      if (frame.flow == 0) continue;
      TELEM_RECORD("net.request_seconds",
                   std::chrono::duration<core::Real>(now - frame.received)
                       .count());
      // A remote chain is closed by the client's recv; ending it here too
      // would give the flow two heads in the merged view.
      if (frame.remote)
        TELEM_TRACE_FLOW_STEP("net.request", frame.flow);
      else
        TELEM_TRACE_FLOW_END("net.request", frame.flow);
    }
    return true;
  };

  bool reading = true;
  for (;;) {
    // Watch frames go into the outbox before it is taken below. Once stop()
    // has begun, each subscription gets its terminal frame instead.
    int watch_timeout_ms = -1;
    if (running_.load(std::memory_order_acquire)) {
      watch_timeout_ms = serve_watches(c);
    } else {
      reading = false;
      end_watches(c);
    }
    bool owes = false, queued = false;
    {
      std::lock_guard lock(c.mutex);
      if (c.closed) break;  // the outbox passed kOutboxCapBytes
      if (written == out.size()) {
        out.clear();
        frames.clear();
        written = next = frame_at = 0;
        out.swap(c.outbox);
        frames.swap(c.frames);
      }
      owes = c.owed > 0;
      queued = !c.outbox.empty();
    }
    if (written < out.size() && !write_out()) break;
    const bool pending = written < out.size();
    // Frames queued while a batch was part-written sent no wake (push
    // wakes only an empty outbox): take them now the batch is out.
    if (!pending && queued) continue;
    // Only this thread adds to `owed` (handle_submit) and to its watches
    // (handle_watch), so once it stops reading, nothing owed, no watch and
    // nothing pending (nor, by the line above, queued) is final. A watch
    // keeps a half-closed client's connection streaming until stop().
    if (!reading && !owes && !pending && c.watches.empty()) break;

    pollfd fds[2] = {
        {c.socket.fd(),
         static_cast<short>((reading ? POLLIN : 0) | (pending ? POLLOUT : 0)),
         0},
        {c.wake.fd(), POLLIN, 0}};
    const bool flushing_at_stop =
        !reading && !owes && !running_.load(std::memory_order_acquire);
    const int ready = ::poll(
        fds, 2, flushing_at_stop ? kStopFlushTimeoutMs : watch_timeout_ms);
    // stop(): the peer took nothing for too long. Otherwise a watch is due.
    if (ready == 0 && flushing_at_stop) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) c.wake.clear();
    if (fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) break;  // peer gone
    if (fds[0].revents & POLLIN) reading = read_frames(conn, in, chunk.get());
  }

  // Nothing more is written here: later frames are dropped, and the peer
  // sees EOF after the last byte written.
  {
    std::lock_guard lock(c.mutex);
    c.closed = true;
    c.outbox.clear();
    c.frames.clear();
  }
  c.watches.clear();
  c.socket.shutdown_both();
  TELEM_GAUGE("net.connections_active",
              static_cast<core::Real>(
                  active_connections_.fetch_sub(1, std::memory_order_relaxed) -
                  1));
}

bool Server::read_frames(const std::shared_ptr<Connection>& conn,
                         std::string& in, char* chunk) {
  const long got = conn->socket.read_some(chunk, kReadChunkBytes);
  if (got == 0) return true;
  if (got < 0) {
    // EOF, or a read error. A partial frame means a mid-frame disconnect;
    // anything already submitted still completes, its reply just fails to
    // reach the dead socket.
    if (!in.empty()) TELEM_COUNT("net.frame_errors");
    return false;
  }
  in.append(chunk, static_cast<std::size_t>(got));
  std::size_t at = 0;
  bool more = true;
  std::string frame;
  while (in.size() - at >= 4) {
    const std::uint32_t n = net::frame_length(in.data() + at);
    if (n > config_.max_frame_bytes) {
      TELEM_COUNT("net.frame_oversized");
      net::Response resp;
      resp.status = net::Status::kBadRequest;
      resp.summary = "frame exceeds " +
                     std::to_string(config_.max_frame_bytes) + " bytes";
      conn->push(resp);
      more = false;  // the unread body makes the stream unparseable; hang up
      break;
    }
    if (in.size() - at - 4 < n) break;
    frame.assign(in, at + 4, n);
    at += 4 + n;
    TELEM_COUNT("net.bytes_in", static_cast<core::Real>(n + 4));
    handle_frame(conn, frame);
  }
  in.erase(0, at);
  return more;
}

void Server::Connection::owe() {
  std::lock_guard lock(mutex);
  ++owed;
}

bool Server::Connection::push(const net::Response& resp, OutFrame frame,
                              bool settles) {
  const std::string payload = net::encode_response(resp);
  frame.bytes = payload.size() + 4;
  bool wake_reader = false;
  bool overflow = false;
  {
    std::lock_guard lock(mutex);
    // The last owed frame wakes the reader even into a non-empty outbox: a
    // reader that has stopped reading and waits to write re-checks `owed`
    // only when woken, and once it is owed nothing it may give up on a peer
    // that takes no byte (stop()).
    if (settles) wake_reader = --owed == 0;
    if (closed) return false;
    // A non-empty outbox otherwise already has a wake on its way, or a
    // reader that takes it once its current batch is written.
    wake_reader = wake_reader || outbox.empty();
    net::append_frame(&outbox, payload);
    frames.push_back(frame);
    if (outbox.size() > kOutboxCapBytes) {
      // The client stopped reading: cut it off instead of buffering for it.
      closed = overflow = wake_reader = true;
      outbox.clear();
      frames.clear();
    }
  }
  if (overflow) TELEM_COUNT("net.outbox_overflow");
  if (wake_reader) wake.notify();
  return !overflow;
}

void Server::handle_frame(const std::shared_ptr<Connection>& conn,
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
    conn->push(resp);
    return;
  }
  TELEM_COUNT("net.requests");

  if (req->method == "ping") {
    net::Response resp;
    resp.id = req->id;
    resp.trace_id = req->trace_id;
    resp.status = net::Status::kOk;
    resp.summary = "pong";
    conn->push(resp);
    return;
  }
  if (req->method == "status") {
    conn->push(status_response(*req));
    return;
  }
  if (req->method == "metrics") {
    const auto [sample, previous] = sample_registry();
    net::Response resp;
    resp.id = req->id;
    resp.trace_id = req->trace_id;
    resp.status = net::Status::kOk;
    resp.summary = "metrics";
    resp.body = metrics_body(*sample, previous.get());
    conn->push(resp);
    return;
  }
  if (req->method == "watch") {
    handle_watch(conn, *req);
    return;
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
    conn->push(resp);
    return;
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
    return;
  }

  TELEM_COUNT("net.bad_request");
  net::Response resp;
  resp.id = req->id;
  resp.trace_id = req->trace_id;
  resp.status = net::Status::kBadRequest;
  resp.summary = "unknown method '" + req->method + "'";
  conn->push(resp);
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
    conn->push(reject);
    return;
  }
  std::string error;
  auto payload = build_workload(req, &error);
  if (!payload) {
    TELEM_COUNT("net.bad_request");
    reject.status = net::Status::kBadRequest;
    reject.summary = error;
    conn->push(reject);
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
    conn->push(reject);
    return;
  }
  if (scheduler_.queue_depth(req.kind) >= config_.admission_high_water) {
    governor_.release(req.tenant);
    TELEM_COUNT("net.rejected_overloaded");
    reject.status = net::Status::kOverloaded;
    reject.summary = "queue high-water for '" + core::to_string(req.kind) +
                     "'";
    reject.retry_after_ms = overload_retry_hint(req.kind);
    conn->push(reject);
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

  // The reply is queued by whichever thread settles the job, straight into
  // this connection's outbox; the hook never touches the socket.
  const std::uint64_t flow = req.trace_id != 0 ? req.trace_id : rid;
  const bool remote = req.trace_id != 0;
  auto on_complete = [this, conn, id = req.id, trace_id = req.trace_id,
                      tenant = req.tenant, kind = req.kind, flow, remote,
                      received = now](core::JobResult result,
                                      std::exception_ptr thrown) {
    TELEM_TRACE_SCOPE("net.reply");
    TELEM_TRACE_FLOW_STEP("net.request", flow);
    net::Response resp = response_of(result, thrown);
    resp.id = id;
    resp.trace_id = trace_id;
    if (resp.status == net::Status::kOverloaded)
      resp.retry_after_ms = overload_retry_hint(kind);
    governor_.release(tenant);
    conn->push(resp, {.flow = flow, .remote = remote, .received = received},
               /*settles=*/true);
  };
  conn->owe();
  try {
    TELEM_TRACE_SCOPE("net.enqueue");
    TELEM_TRACE_FLOW_STEP("net.request", flow);
    scheduler_.submit(req.tenant + "/" + req.work, req.kind,
                      std::move(*payload), opts, std::move(on_complete));
  } catch (const std::exception& e) {
    // Shutdown raced the running_ check; answer typed.
    reject.status = net::Status::kShuttingDown;
    reject.summary = e.what();
    governor_.release(req.tenant);
    conn->push(reject, OutFrame(), /*settles=*/true);
  }
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
  body.emplace_back("submitted", num(stats.submitted));
  append_scheduler_blocks(body, stats);

  core::JsonValue::Members tenants;
  for (const auto& [tenant, ts] : governor_.stats()) {
    core::JsonValue::Members t;
    t.emplace_back("in_flight", num(ts.in_flight));
    t.emplace_back("admitted", num(ts.admitted));
    t.emplace_back("rejected", num(ts.rejected));
    tenants.emplace_back(tenant, core::JsonValue::make_object(std::move(t)));
  }
  body.emplace_back("tenants",
                    core::JsonValue::make_object(std::move(tenants)));

  // Server-side latency quantiles — what loadgen prints as the soak gate.
  const auto& registry = telemetry::Telemetry::instance().metrics();
  const telemetry::HistogramSnapshot latency =
      registry.histogram("net.request_seconds");
  core::JsonValue::Members lat;
  lat.emplace_back("count", num(latency.count));
  lat.emplace_back("mean_seconds", num(latency.mean()));
  lat.emplace_back("p50_seconds", num(latency.quantile(0.5)));
  lat.emplace_back("p99_seconds", num(latency.quantile(0.99)));
  body.emplace_back("latency", core::JsonValue::make_object(std::move(lat)));

  core::JsonValue::Members counters;
  for (const char* name :
       {"net.connections", "net.requests", "net.responses",
        "net.rejected_overloaded", "net.rejected_quota", "net.bad_request",
        "net.frame_errors", "net.frame_oversized", "net.bytes_in",
        "net.bytes_out"})
    counters.emplace_back(name, num(registry.counter(name)));
  body.emplace_back("counters",
                    core::JsonValue::make_object(std::move(counters)));

  resp.body = core::JsonValue::make_object(std::move(body));
  return resp;
}

std::pair<Server::SamplePtr, Server::SamplePtr> Server::sample_registry() {
  // Sampled under the lock: a sample taken later always replaces one taken
  // earlier, whichever reader finishes first.
  std::lock_guard lock(sample_mutex_);
  auto sample = std::make_shared<const telemetry::MetricsSample>(
      telemetry::take_sample(telemetry::Telemetry::instance().metrics(),
                             epoch_));
  return {sample, std::exchange(last_sample_, sample)};
}

core::JsonValue Server::metrics_body(
    const telemetry::MetricsSample& sample,
    const telemetry::MetricsSample* older) const {
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

  // Counter deltas since the older sample, normalized to /s — the "is it
  // busy right now" signal a monotonic counter cannot give.
  const telemetry::MetricsRates rates =
      older ? telemetry::rates_between(*older, sample)
            : telemetry::MetricsRates{};
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
    hm.emplace_back("count", num(h.count));
    hm.emplace_back("mean", num(h.mean()));
    hm.emplace_back("p50", num(h.quantile(0.5)));
    hm.emplace_back("p90", num(h.quantile(0.9)));
    hm.emplace_back("p99", num(h.quantile(0.99)));
    hm.emplace_back("max", num(h.max));
    histograms.emplace_back(name, core::JsonValue::make_object(std::move(hm)));
  }
  body.emplace_back("histograms",
                    core::JsonValue::make_object(std::move(histograms)));

  append_scheduler_blocks(body, scheduler_.stats());
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
      conn->push(resp);
      return;
    }
    interval_ms = v.number();
  }
  interval_ms = std::min(60000.0, std::max(20.0, interval_ms));

  WatchSub sub;
  sub.wire_id = req.id;
  sub.trace_id = req.trace_id;
  sub.interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(interval_ms));
  // First frame synchronously, so `rebootctl top --once` gets its answer in
  // one round trip instead of one watch interval. Its rates are measured
  // against the server's previous sample, so a `metrics` call ahead of the
  // subscription sets their window.
  auto [sample, previous] = sample_registry();
  sub.last = std::move(previous);
  conn->push(watch_frame(sub, std::move(sample)));
  conn->watches.push_back(std::move(sub));
  TELEM_COUNT("net.watch_subscribed");
}

net::Response Server::watch_frame(WatchSub& sub, SamplePtr sample) {
  net::Response frame;
  frame.id = sub.wire_id;
  frame.trace_id = sub.trace_id;
  frame.status = net::Status::kOk;
  frame.summary = "watch";
  frame.streaming = true;
  frame.body = metrics_body(*sample, sub.last.get());
  sub.last = std::move(sample);
  // Due one interval from now: a reader that was held up catches up with
  // one frame, not a burst of back-dated ones.
  sub.next_due = Clock::now() + sub.interval;
  return frame;
}

int Server::serve_watches(Connection& c) {
  if (c.watches.empty()) return -1;
  const auto now = Clock::now();
  SamplePtr sample;  // one registry sample for every subscription due now
  auto next_due = Clock::time_point::max();
  for (WatchSub& sub : c.watches) {
    if (sub.next_due <= now) {
      if (!sample) sample = sample_registry().first;
      c.push(watch_frame(sub, sample));
    }
    next_due = std::min(next_due, sub.next_due);
  }
  const auto wait =
      std::chrono::ceil<std::chrono::milliseconds>(next_due - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(0, wait.count()));
}

void Server::end_watches(Connection& c) {
  for (const WatchSub& sub : c.watches) {
    net::Response resp;
    resp.id = sub.wire_id;
    resp.trace_id = sub.trace_id;
    resp.status = net::Status::kShuttingDown;
    resp.summary = "watch closed: server stopping";
    c.push(resp);
  }
  c.watches.clear();
}

}  // namespace rebooting::rebootd
