// The rebootd daemon core: a sched::Scheduler wrapped in the wire protocol
// of apps/net, embeddable in-process (tests, benches) or behind main().
//
// Thread architecture — no stage ever blocks another stage's progress:
//
//   accept loop (1)    poll-based; hands each connection a reader thread.
//                      Admission problems never reach this thread.
//   readers (1/conn)   read_frame -> decode -> admission (quota, then
//                      queue high-water) -> Scheduler::submit.
//                      Submission uses kReject backpressure, so a reader
//                      never sleeps on a full queue: the overload answer is
//                      a typed frame, written immediately.
//   pumps (N)          bridge the scheduler's std::future completions back
//                      to sockets: block on future.get(), map the
//                      JobDisposition to a wire Status, write the response
//                      (per-connection write mutex; a reader and a pump may
//                      share a socket).
//   watch pump (1)     pushes periodic metrics frames (telemetry::Sampler
//                      ticks) to every `watch` subscriber; at stop() it owes
//                      each subscriber one terminal frame.
//
// Accounting invariant: every frame that decodes into a request gets exactly
// one response, including during stop() — the ordered teardown (stop
// accepting -> unblock readers -> scheduler shutdown flushes queued jobs as
// kFlushed -> pumps drain every remaining future) turns in-flight work into
// kShuttingDown responses instead of dropping it.
//
// Deduplication: every submit becomes its own Scheduler::submit. Identical
// work shares one execution only when the client opts in with `memo`
// (DESIGN.md §14): the scheduler's memo cache replays a finished result and
// its single-flight collapses an identical in-flight job, and every caller
// still gets its own future and response frame.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "rebootd/tenancy.h"
#include "scheduler/scheduler.h"
#include "telemetry/sampler.h"

namespace rebooting::rebootd {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back with Server::port()
  /// Worker threads of the classical-cpu pool (the only pool rebootd opens
  /// by default; engine pools are added by main() flags or test setup).
  std::size_t cpu_workers = 2;
  std::size_t queue_capacity = 256;
  /// Queue depth at which submits are rejected kOverloaded. 0 = queue
  /// capacity. Keeping it below capacity leaves headroom for races between
  /// the depth check and the enqueue (which then surface as kRejected, the
  /// same wire status).
  std::size_t admission_high_water = 0;
  std::size_t pump_threads = 2;
  /// Pin each scheduler worker to its own CPU (SchedulerConfig::pin_workers).
  /// Off for an embedded server, which shares its process; the rebootd
  /// binary, which owns its host, turns it on.
  bool pin_workers = false;
  std::size_t max_frame_bytes = net::kMaxFrameBytes;
  /// RetryPolicy for submitted workloads; all workloads are self-contained,
  /// so cpu_fallback is always enabled.
  std::size_t retry_attempts = 3;
  /// Consecutive-failure threshold of each worker's breaker (0 = disabled).
  std::size_t breaker_threshold = 8;
  TenancyConfig tenancy;
  bool enable_telemetry = true;
};

class Server {
 public:
  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adds an engine pool before start() (classical-cpu is built in).
  void add_pool(core::AcceleratorKind kind, std::size_t workers,
                const core::AcceleratorFactory& factory);

  /// Binds, spawns the accept loop and pumps. False on bind failure.
  bool start(std::string* error = nullptr);
  std::uint16_t port() const { return port_; }

  /// Ordered teardown; every accepted request still gets a response.
  /// Idempotent.
  void stop();

  /// True once a client sent the "shutdown" method; the owner of the Server
  /// decides when to act on it (main() polls it next to the signal flag).
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  const ServerConfig& config() const { return config_; }

 private:
  /// One accepted socket, shared by its reader thread and every pump that
  /// still owes it a response. The fd closes when the last owner drops.
  struct Connection {
    net::Socket socket;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
  };

  /// One response owed: which connection, which wire id, when it arrived.
  struct Waiter {
    std::shared_ptr<Connection> conn;
    std::uint64_t wire_id = 0;
    /// The request's distributed trace context (0 = none), echoed in its
    /// response frame.
    std::uint64_t trace_id = 0;
    Clock::time_point received{};
    std::string tenant;
  };

  /// Pump work item: one scheduler future plus the response it owes.
  struct Pending {
    std::future<core::JobResult> future;
    Waiter waiter;
    std::uint64_t rid = 0;
    /// "net.request" flow-chain id: the client's trace_id when the request
    /// carried one, else the server-local rid. `remote` distinguishes the
    /// two at complete(): a remote chain gets a flow *step* at reply time
    /// (the client's recv closes it), a local one gets the flow end here.
    std::uint64_t flow = 0;
    bool remote = false;
    /// Which pool the job went to — needed to derive the retry_after_ms
    /// hint if the scheduler itself answers kOverloaded.
    core::AcceleratorKind kind = core::AcceleratorKind::kClassicalCpu;
  };

  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  /// One live `watch` subscription: where to push frames and how often.
  struct WatchSub {
    std::shared_ptr<Connection> conn;
    std::uint64_t wire_id = 0;
    std::uint64_t trace_id = 0;
    double interval_ms = 500.0;
    Clock::time_point next_due{};
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn, std::uint64_t conn_id);
  void pump_loop(std::size_t index);
  /// Pushes periodic metrics frames to every watch subscriber; on shutdown,
  /// sends each one its terminal (non-streaming) kShuttingDown frame so the
  /// one-response-per-request accounting closes for streams too.
  void watch_loop();
  /// Decodes and dispatches one frame; false = hang up the connection.
  bool handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& frame);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const net::Request& req, std::uint64_t rid);
  void handle_watch(const std::shared_ptr<Connection>& conn,
                    const net::Request& req);
  net::Response status_response(const net::Request& req) const;
  /// Body of the `metrics` verb and of every watch frame: one fresh sampler
  /// tick (counters, gauges, histogram quantiles), counter rates over the
  /// last sampling interval, and Scheduler::stats().
  core::JsonValue metrics_body();
  /// retry_after_ms hint for kOverloaded rejections, derived from the load
  /// actually present: queued jobs of `kind` divided across its workers,
  /// each costing the observed mean service time (1 ms floor).
  double overload_retry_hint(core::AcceleratorKind kind) const;
  void send_response(const std::shared_ptr<Connection>& conn,
                     const net::Response& resp);
  /// Answers one pending request from its settled future (or exception).
  void complete(Pending&& pending);
  void reap_readers(bool all);

  ServerConfig config_;
  sched::Scheduler scheduler_;
  TenantGovernor governor_;
  /// Samples the process-wide registry for the metrics/watch verbs. Driven
  /// by tick() from this class (watch cadence), never by its own thread.
  telemetry::Sampler sampler_;
  net::Listener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> next_rid_{1};
  std::atomic<std::int64_t> active_connections_{0};

  std::thread accept_thread_;
  std::mutex readers_mutex_;
  std::list<ReaderSlot> readers_;

  std::mutex pending_mutex_;
  std::condition_variable pending_cv_;
  std::deque<Pending> pending_;
  bool pending_closed_ = false;
  std::vector<std::thread> pumps_;

  std::mutex watch_mutex_;
  std::condition_variable watch_cv_;
  std::vector<WatchSub> watchers_;
  bool watch_closed_ = false;
  std::thread watch_thread_;
};

}  // namespace rebooting::rebootd
