// The rebootd daemon core: a sched::Scheduler wrapped in the wire protocol
// of apps/net, embeddable in-process (tests, benches) or behind main().
//
// Thread architecture — no thread ever waits on another connection's socket:
//
//   accept loop (1)    poll-based; hands each connection a reader thread.
//                      Admission problems never reach this thread.
//   readers (1/conn)   the only thread that reads or writes its socket. It
//                      polls the non-blocking socket and its connection's
//                      wake fd; it reads frames -> decode -> admission
//                      (quota, then queue high-water) -> Scheduler::submit,
//                      and writes the connection's outbox. Submission uses
//                      kReject backpressure, so a reader never sleeps on a
//                      full queue: the overload answer is a typed frame. It
//                      also serves its connection's `watch` subscriptions:
//                      its poll times out when the next one is due, and one
//                      registry sample feeds every subscription due then.
//   scheduler workers  each submit carries a completion hook. On whichever
//                      thread settles the job (a worker; the reader itself
//                      on a memo hit or a rejection; stop() on a flush), the
//                      hook maps the JobDisposition to a wire Status,
//                      encodes the response, appends it to the connection's
//                      outbox and wakes the reader. So a reply leaves as
//                      soon as its job settles, never behind another job.
//
// Outbox cap: a connection whose outbox (frames its reader has not taken
// to write yet) passes kOutboxCapBytes has a client that stopped reading.
// It is shut down, its remaining replies are dropped, and its client counts
// those requests as transport errors; no other connection waits on it.
//
// Accounting invariant: every frame that decodes into a request gets exactly
// one response, including during stop() — the ordered teardown (stop
// accepting -> shut every read side and wake each reader, which queues each
// of its watch subscriptions' terminal frame -> Scheduler::shutdown() calls
// every remaining hook -> each reader writes its outbox and exits -> join)
// turns in-flight work into kShuttingDown responses instead of dropping it.
//
// Deduplication: every submit becomes its own Scheduler::submit. Identical
// work shares one execution only when the client opts in with `memo`
// (DESIGN.md §14): the scheduler's memo cache replays a finished result and
// its single-flight collapses an identical in-flight job, and every caller
// still gets its own completion and response frame.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
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
  /// Pin each scheduler worker to its own CPU (SchedulerConfig::pin_workers).
  /// Off for an embedded server, which shares its process; the rebootd
  /// binary, which owns its host, turns it on.
  bool pin_workers = false;
  /// RetryPolicy for submitted workloads; all workloads are self-contained,
  /// so cpu_fallback is always enabled.
  std::size_t retry_attempts = 3;
  TenancyConfig tenancy;
};

class Server {
 public:
  /// Outbox bytes at which a connection is shut down: four maximal frames.
  /// A client that reads keeps its outbox near empty (its in-flight window
  /// bounds its unread replies); one that stops reading is cut off whatever
  /// the value, which only sets how much memory it can pin and how long it
  /// takes. So it is a constant, not an option.
  static constexpr std::size_t kOutboxCapBytes = 4 * net::kMaxFrameBytes;

  explicit Server(ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Adds an engine pool before start() (classical-cpu is built in).
  void add_pool(core::AcceleratorKind kind, std::size_t workers,
                const core::AcceleratorFactory& factory);

  /// Binds and spawns the accept loop. False on bind failure.
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
  /// One frame in an outbox: its size and, for a submit's reply, what the
  /// reader records once the frame is written.
  struct OutFrame {
    std::size_t bytes = 0;
    /// "net.request" flow-chain id (0 = not a submit's reply): the
    /// client's trace_id when the request carried one, else the
    /// server-local rid. A `remote` chain gets a flow *step* at the write
    /// (the client's recv closes it), a local one its flow end.
    std::uint64_t flow = 0;
    bool remote = false;
    Clock::time_point received{};  ///< start of net.request_seconds
  };

  using SamplePtr = std::shared_ptr<const telemetry::MetricsSample>;

  /// One live `watch` subscription: its wire ids, how often it is due, and
  /// the sample its last frame carried, which its next frame's rates are
  /// measured against.
  struct WatchSub {
    std::uint64_t wire_id = 0;
    std::uint64_t trace_id = 0;
    Clock::duration interval{};
    Clock::time_point next_due{};
    SamplePtr last;
  };

  /// One accepted socket. Its reader thread is the socket's only reader and
  /// writer; every other thread hands it frames through the outbox. Shared
  /// with every completion hook that still owes it a frame; the fd closes
  /// when the last owner drops.
  struct Connection {
    net::Socket socket;
    net::Waker wake;  ///< interrupts the reader's poll
    /// The connection's `watch` subscriptions. Only its reader touches
    /// them, so they are not under `mutex`.
    std::vector<WatchSub> watches;
    /// Guards the members below; a leaf lock, never held across I/O.
    std::mutex mutex;
    std::string outbox;  ///< framed responses the reader has not taken yet
    std::vector<OutFrame> frames;  ///< one entry per frame of `outbox`
    /// Replies still to come, one per accepted submit, which keep the reader
    /// writing after it stops reading.
    std::size_t owed = 0;
    /// The reader is gone or the outbox passed kOutboxCapBytes: frames are
    /// dropped.
    bool closed = false;

    /// Queues one response for the reader, waking it when the outbox was
    /// empty or when `settles` (the last frame of a request counted in
    /// `owed`) brings `owed` to 0. False once closed (dropped).
    bool push(const net::Response& resp, OutFrame frame, bool settles);
    bool push(const net::Response& resp) {
      return push(resp, OutFrame(), false);
    }
    void owe();
  };

  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn, std::uint64_t conn_id);
  /// Reads what the socket holds (through `chunk`) into `in` and handles
  /// every whole frame there. False once the connection reads no more: EOF,
  /// an error, or an oversized frame (answered first).
  bool read_frames(const std::shared_ptr<Connection>& conn, std::string& in,
                   char* chunk);
  /// Queues a frame for each of `c`'s watch subscriptions that is due, all
  /// from one registry sample. Returns the poll timeout (ms) until the next
  /// one is due; -1 when `c` has none.
  int serve_watches(Connection& c);
  /// Queues each of `c`'s watch subscriptions its terminal (non-streaming)
  /// kShuttingDown frame, the stream's one response, and ends them.
  void end_watches(Connection& c);
  /// The next streaming frame of `sub`, from `sample`; rates are measured
  /// against `sub.last`, which becomes `sample`.
  net::Response watch_frame(WatchSub& sub, SamplePtr sample);
  /// Decodes and dispatches one frame.
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& frame);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const net::Request& req, std::uint64_t rid);
  void handle_watch(const std::shared_ptr<Connection>& conn,
                    const net::Request& req);
  net::Response status_response(const net::Request& req) const;
  /// Takes one registry sample and makes it the server's previous sample.
  /// Returns it and the sample it replaced (null before the first).
  std::pair<SamplePtr, SamplePtr> sample_registry();
  /// Body of the `metrics` verb and of every watch frame: `sample`
  /// (counters, gauges, histogram quantiles), its counter rates since
  /// `older` (none when null), and Scheduler::stats().
  core::JsonValue metrics_body(const telemetry::MetricsSample& sample,
                               const telemetry::MetricsSample* older) const;
  /// retry_after_ms hint for kOverloaded rejections, derived from the load
  /// actually present: queued jobs of `kind` divided across its workers,
  /// each costing the observed mean service time (1 ms floor).
  double overload_retry_hint(core::AcceleratorKind kind) const;
  void reap_readers(bool all);

  ServerConfig config_;
  sched::Scheduler scheduler_;
  TenantGovernor governor_;
  /// t = 0 of every registry sample (the server's construction).
  const Clock::time_point epoch_ = Clock::now();
  /// The latest registry sample: what a `metrics` reply and a subscription's
  /// first frame measure rates against. Samples are taken under the mutex,
  /// so a newer one is never replaced by an older.
  std::mutex sample_mutex_;
  SamplePtr last_sample_;
  net::Listener listener_;
  std::uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> next_rid_{1};
  std::atomic<std::int64_t> active_connections_{0};

  std::thread accept_thread_;
  std::mutex readers_mutex_;
  std::list<ReaderSlot> readers_;
};

}  // namespace rebooting::rebootd
