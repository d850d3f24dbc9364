// End-to-end service tests: a real rebootd::Server on an ephemeral port,
// driven by real sockets — admission control, memoized deduplication,
// tenancy, teardown accounting, and the connection-level failure modes. Runs
// under TSan in CI.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/random.h"
#include "memcomputing/canonical.h"
#include "memcomputing/cnf.h"
#include "memcomputing/dmm.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "rebootctl/client.h"
#include "rebootd/server.h"
#include "rebootd/tenancy.h"
#include "support/watchdog.h"

namespace rebooting::rebootd {
namespace {

using namespace std::chrono_literals;
using test_support::Watchdog;

net::Request submit_spin(std::uint64_t id, double micros) {
  net::Request req;
  req.id = id;
  req.method = "submit";
  req.work = "spin";
  req.params = core::JsonValue::make_object(
      {{"micros", core::JsonValue::make_number(micros)}});
  return req;
}

rebootctl::Client connect_client(const Server& server) {
  rebootctl::Client client;
  std::string error;
  EXPECT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
  return client;
}

/// Polls the status method until `pred(body)` holds (or ~400 ms elapse).
template <typename Pred>
bool wait_for_status(const Server& server, Pred pred) {
  rebootctl::Client client = connect_client(server);
  for (int i = 0; i < 200; ++i) {
    net::Request req;
    req.id = 1;
    req.method = "status";
    const auto resp = client.call(req);
    if (resp && resp->body.is_object() && pred(resp->body)) return true;
    std::this_thread::sleep_for(2ms);
  }
  return false;
}

double pool_stat(const core::JsonValue& body, const char* stat) {
  return body.at("pools").at("classical-cpu").at(stat).number();
}

TEST(Service, SubmitExecutesAndReportsMetrics) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  const auto resp = client.call(submit_spin(7, 100.0));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->id, 7u);
  EXPECT_EQ(resp->status, net::Status::kOk);
  EXPECT_EQ(resp->attempts, 1u);
  EXPECT_DOUBLE_EQ(resp->metrics.at("work.spin_micros"), 100.0);
  EXPECT_GT(resp->wall_seconds, 0.0);
}

net::Request submit_work(std::uint64_t id, std::string work,
                         core::JsonValue params = {}) {
  net::Request req;
  req.id = id;
  req.method = "submit";
  req.work = std::move(work);
  req.params = std::move(params);
  return req;
}

// rebootd's remaining workloads, each from the decoded request to the reply
// frame on a one-worker daemon: `sat` runs the DMM solve, while `fail` and
// `throw` are the wire's only path through the retry policy rebootd puts on
// every job (ServerConfig::retry_attempts = 3, cpu_fallback on).
TEST(Service, SatWorkloadSolvesAndReportsItsSteps) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  const auto resp = client.call(submit_work(
      1, "sat",
      core::JsonValue::make_object(
          {{"vars", core::JsonValue::make_number(20)},
           {"clauses", core::JsonValue::make_number(80)},
           {"seed", core::JsonValue::make_number(3)}})));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);
  EXPECT_EQ(resp->summary, "sat: satisfied in 86 steps");
  EXPECT_EQ(resp->attempts, 1u);
  EXPECT_DOUBLE_EQ(resp->metrics.at("work.sat_satisfied"), 1.0);
  EXPECT_DOUBLE_EQ(resp->metrics.at("work.sat_steps"), 86.0);
}

// The benchmark's own check, in ctest: each `sat` reply of rebootd's shape
// (50 vars, 200 clauses) carries exactly the outcome and step count of the
// same solve run on the test thread. The worker's thread-local Workspace is
// warm from the earlier seeds and the test thread's is not, so a kernel that
// read a stale workspace block would split the two.
TEST(Service, SatRepliesEqualAnInProcessSolve) {
  memcomputing::dmm_cache().clear();  // every instance is a fresh miss
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  std::vector<std::uint64_t> budget_runs;
  for (std::uint64_t seed = 1000; seed <= 1011; ++seed) {
    const auto resp = client.call(submit_work(
        seed, "sat",
        core::JsonValue::make_object(
            {{"vars", core::JsonValue::make_number(50)},
             {"clauses", core::JsonValue::make_number(200)},
             {"seed", core::JsonValue::make_number(
                          static_cast<double>(seed))}})));
    ASSERT_TRUE(resp.has_value()) << "seed " << seed;
    ASSERT_EQ(resp->status, net::Status::kOk) << "seed " << seed;

    core::Rng rng(seed);
    const memcomputing::Cnf cnf = memcomputing::random_ksat(rng, 50, 200, 3);
    memcomputing::DmmOptions options;
    options.max_steps = 20'000;
    const memcomputing::DmmResult want =
        memcomputing::DmmSolver(cnf, options).solve(rng);
    EXPECT_EQ(resp->metrics.at("work.sat_satisfied"),
              want.satisfied ? 1.0 : 0.0)
        << "seed " << seed;
    EXPECT_EQ(resp->metrics.at("work.sat_steps"),
              static_cast<double>(want.steps))
        << "seed " << seed;
    if (want.hit_limit) budget_runs.push_back(seed);
  }
  // The comparison covers whole-budget runs, the ones that set the p99.
  EXPECT_EQ(budget_runs, (std::vector<std::uint64_t>{1001, 1008, 1011}));
}

TEST(Service, FailWorkloadRetriesThenReportsFailed) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  const auto resp = client.call(submit_work(2, "fail"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kFailed);
  EXPECT_EQ(resp->summary, "fail: workload reported failure");
  EXPECT_EQ(resp->attempts, 3u);
}

TEST(Service, ThrowWorkloadRepliesWithATypedError) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  const auto resp = client.call(submit_work(3, "throw"));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kError);
  EXPECT_EQ(resp->summary, "throw: workload threw");
  // The connection outlives the exception.
  const auto after = client.call(submit_spin(4, 10.0));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, net::Status::kOk);
}

TEST(Service, TypedRejectionsForBadRequests) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  net::Request ping;
  ping.id = 1;
  ping.method = "ping";
  auto resp = client.call(ping);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);

  net::Request unknown;
  unknown.id = 2;
  unknown.method = "frobnicate";
  resp = client.call(unknown);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);

  net::Request bad_work;
  bad_work.id = 3;
  bad_work.method = "submit";
  bad_work.work = "no-such-work";
  resp = client.call(bad_work);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);

  // No quantum pool was added, so the kind is unroutable — typed, not fatal.
  net::Request bad_kind = submit_spin(4, 10.0);
  bad_kind.kind = core::AcceleratorKind::kQuantum;
  resp = client.call(bad_kind);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);

  // The connection survived all three rejections.
  ping.id = 5;
  resp = client.call(ping);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);
}

TEST(Service, MalformedJsonKeepsTheConnectionUsable) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(net::write_frame(sock, "{this is not json"));
  std::string frame;
  ASSERT_EQ(net::read_frame(sock, &frame, net::kMaxFrameBytes),
            net::FrameRead::kFrame);
  auto resp = net::decode_response(frame);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);

  // The framing was intact, so the same connection still serves requests.
  net::Request ping;
  ping.id = 9;
  ping.method = "ping";
  ASSERT_TRUE(net::write_frame(sock, net::encode_request(ping)));
  ASSERT_EQ(net::read_frame(sock, &frame, net::kMaxFrameBytes),
            net::FrameRead::kFrame);
  resp = net::decode_response(frame);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);
  EXPECT_EQ(resp->id, 9u);
}

TEST(Service, OversizedFrameGetsATypedReplyThenHangup) {
  ServerConfig config;
  config.cpu_workers = 1;
  config.max_frame_bytes = 256;
  Server server(config);
  ASSERT_TRUE(server.start());

  net::Socket sock = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(sock.valid());
  ASSERT_TRUE(net::write_frame(sock, std::string(1024, 'x')));
  std::string frame;
  ASSERT_EQ(net::read_frame(sock, &frame, net::kMaxFrameBytes),
            net::FrameRead::kFrame);
  const auto resp = net::decode_response(frame);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);
  // The unread body poisons the stream; the server hangs up after replying.
  // (kError, not kEof, is possible: closing with the unread body still in
  // the server's receive buffer makes TCP reset the connection.)
  const net::FrameRead after = net::read_frame(sock, &frame, net::kMaxFrameBytes);
  EXPECT_TRUE(after == net::FrameRead::kEof || after == net::FrameRead::kError);
}

TEST(Service, MidRequestDisconnectLeavesTheServerServing) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  {
    net::Socket sock = net::connect_to("127.0.0.1", server.port());
    ASSERT_TRUE(sock.valid());
    const unsigned char half_prefix[2] = {0x00, 0x00};
    ASSERT_TRUE(sock.write_all(half_prefix, 2));
  }  // destructor disconnects mid-frame

  rebootctl::Client client = connect_client(server);
  const auto resp = client.call(submit_spin(1, 10.0));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);
}

TEST(Service, ConcurrentClientsAllGetTheirAnswers) {
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());

  constexpr int kThreads = 8;
  constexpr int kRequests = 50;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      rebootctl::Client client = connect_client(server);
      for (int i = 0; i < kRequests; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
        const auto resp = client.call(submit_spin(id, 5.0));
        if (resp && resp->status == net::Status::kOk && resp->id == id) ++ok;
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
}

/// Sends a blocker that pins the server's single worker, then a burst of
/// identical submits queued behind it, and returns the responses to the
/// burst. Every burst member must get its own ok frame, none marked
/// coalesced: rebootd dedups only through the scheduler's memo path. The
/// blocker's 200 ms is the margin within which the reader must hand the
/// whole burst to the scheduler.
std::vector<net::Response> identical_burst_behind_a_blocker(
    const Server& server, rebootctl::Client& client, int burst, bool memo) {
  EXPECT_TRUE(client.send(submit_spin(1, 200'000.0)));
  EXPECT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return pool_stat(body, "in_flight") == 1.0;
  }));
  for (int i = 0; i < burst; ++i) {
    net::Request req = submit_spin(2 + static_cast<std::uint64_t>(i), 1000.0);
    req.memo = memo;
    EXPECT_TRUE(client.send(req));
  }
  std::vector<net::Response> responses;
  for (int i = 0; i < 1 + burst; ++i) {
    auto resp = client.recv();
    if (!resp) break;
    EXPECT_EQ(resp->status, net::Status::kOk) << "id " << resp->id;
    EXPECT_FALSE(resp->coalesced) << "id " << resp->id;
    if (resp->id != 1) responses.push_back(std::move(*resp));
  }
  return responses;
}

TEST(Service, IdenticalMemoBurstRidesOneSchedulerJob) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  constexpr int kBurst = 4;
  const auto responses =
      identical_burst_behind_a_blocker(server, client, kBurst, /*memo=*/true);
  EXPECT_EQ(responses.size(), static_cast<std::size_t>(kBurst));

  // The burst leader queued behind the blocker and every other member rode
  // its in-flight memo flight: two scheduler jobs, kBurst - 1 riders.
  EXPECT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return body.at("submitted").number() == 2.0 &&
           body.at("sched").at("memo_riders").number() == kBurst - 1;
  }));
}

TEST(Service, IdenticalBurstWithoutMemoRunsEveryJob) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  constexpr int kBurst = 4;
  const auto responses =
      identical_burst_behind_a_blocker(server, client, kBurst, /*memo=*/false);
  EXPECT_EQ(responses.size(), static_cast<std::size_t>(kBurst));

  // Without memo nothing is shared: the blocker plus every burst member.
  EXPECT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return body.at("submitted").number() == 1.0 + kBurst &&
           body.at("sched").at("memo_riders").number() == 0.0;
  }));
}

TEST(Service, QuotaExhaustionIsTypedWithARetryHint) {
  ServerConfig config;
  config.cpu_workers = 1;
  config.tenancy.default_quota = {.rate_per_s = 2.0, .burst = 2.0};
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  net::Request echo;
  echo.method = "submit";
  echo.work = "echo";
  for (std::uint64_t id = 1; id <= 2; ++id) {
    echo.id = id;
    const auto resp = client.call(echo);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, net::Status::kOk) << "id " << id;
  }
  echo.id = 3;
  const auto resp = client.call(echo);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kQuotaExceeded);
  ASSERT_TRUE(resp->retry_after_ms.has_value());
  EXPECT_GT(*resp->retry_after_ms, 0.0);
}

TEST(Service, QueueHighWaterRejectsAsOverloaded) {
  ServerConfig config;
  config.cpu_workers = 1;
  config.admission_high_water = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  // One in flight, one queued, and the third must bounce off the high-water
  // mark. The reader handles frames of one connection in order, so by the
  // time request 3 is checked, request 2 is already in the queue.
  ASSERT_TRUE(client.send(submit_spin(1, 100'000.0)));
  ASSERT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return pool_stat(body, "in_flight") == 1.0;
  }));
  ASSERT_TRUE(client.send(submit_spin(2, 100.0)));
  ASSERT_TRUE(client.send(submit_spin(3, 100.0)));

  std::map<net::Status, int> statuses;
  std::map<net::Status, std::uint64_t> status_ids;
  for (int i = 0; i < 3; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value());
    ++statuses[resp->status];
    status_ids[resp->status] = resp->id;
  }
  EXPECT_EQ(statuses[net::Status::kOk], 2);
  EXPECT_EQ(statuses[net::Status::kOverloaded], 1);
  EXPECT_EQ(status_ids[net::Status::kOverloaded], 3u);
}

TEST(Service, StopAnswersEveryAcceptedRequest) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);

  ASSERT_TRUE(client.send(submit_spin(1, 200'000.0)));
  ASSERT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return pool_stat(body, "in_flight") == 1.0;
  }));
  for (std::uint64_t id = 2; id <= 4; ++id)
    ASSERT_TRUE(client.send(submit_spin(id, 100.0)));
  // Wait until the reader has *accepted* all three queued requests —
  // stop()'s response guarantee covers accepted requests, not bytes still
  // sitting unread in the socket buffer.
  ASSERT_TRUE(wait_for_status(server, [](const core::JsonValue& body) {
    return pool_stat(body, "queue_depth") == 3.0;
  }));

  server.stop();

  // The teardown contract: the in-flight job finished (ok), the queued jobs
  // were flushed (shutting_down), and nothing was dropped.
  std::map<net::Status, int> statuses;
  for (int i = 0; i < 4; ++i) {
    const auto resp = client.recv();
    ASSERT_TRUE(resp.has_value()) << "response " << i << " was dropped";
    ++statuses[resp->status];
  }
  EXPECT_EQ(statuses[net::Status::kOk], 1);
  EXPECT_EQ(statuses[net::Status::kShuttingDown], 3);
  EXPECT_FALSE(client.recv().has_value());  // then a clean EOF
}

TEST(Service, ShutdownMethodRaisesTheFlagForTheOwner) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  EXPECT_FALSE(server.shutdown_requested());

  rebootctl::Client client = connect_client(server);
  net::Request req;
  req.id = 1;
  req.method = "shutdown";
  const auto resp = client.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kOk);
  EXPECT_TRUE(server.shutdown_requested());
  server.stop();
}

// --- observability: metrics/watch verbs, trace-context echo ---------------

net::Request watch_request(std::uint64_t id, double interval_ms) {
  net::Request req;
  req.id = id;
  req.method = "watch";
  req.params = core::JsonValue::make_object(
      {{"interval_ms", core::JsonValue::make_number(interval_ms)}});
  return req;
}

TEST(Service, MetricsVerbReturnsSnapshotAndRates) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  ASSERT_TRUE(client.call(submit_spin(1, 50.0)).has_value());

  net::Request req;
  req.id = 2;
  req.method = "metrics";
  const auto first = client.call(req);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->status, net::Status::kOk);
  ASSERT_TRUE(first->body.is_object());
  // One full registry snapshot: the submit above must be visible.
  EXPECT_GE(first->body.at("counters").at("net.requests").number(), 1.0);
  EXPECT_GE(
      first->body.at("histograms").at("net.request_seconds").at("count")
          .number(),
      1.0);
  EXPECT_TRUE(first->body.at("pools").is_object());
  EXPECT_TRUE(first->body.at("sched").is_object());

  // Each metrics call is one sampler tick; from the second on, counter
  // rates over the inter-call window are defined.
  std::this_thread::sleep_for(5ms);
  ASSERT_TRUE(client.call(submit_spin(3, 50.0)).has_value());
  const auto second = client.call(req);
  ASSERT_TRUE(second.has_value());
  const auto& rates = second->body.at("rates");
  EXPECT_GT(rates.at("dt_seconds").number(), 0.0);
  EXPECT_GT(rates.at("per_second").at("net.requests").number(), 0.0);
}

TEST(Service, WatchStreamsFramesUntilTheClientUnsubscribes) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  // 5 ms requested, clamped to the 20 ms floor server-side.
  ASSERT_TRUE(client.send(watch_request(9, 5.0)));
  for (int i = 0; i < 3; ++i) {
    std::string error;
    const auto frame = client.recv(&error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_EQ(frame->id, 9u);
    EXPECT_EQ(frame->status, net::Status::kOk);
    EXPECT_TRUE(frame->streaming) << "frame " << i << " must be non-terminal";
    EXPECT_TRUE(frame->body.is_object());
  }
  // Disconnecting is the unsubscribe; the server must shed the dead
  // subscription instead of wedging its watch pump on it.
  client.close();
  rebootctl::Client probe = connect_client(server);
  net::Request ping;
  ping.id = 1;
  ping.method = "ping";
  const auto pong = probe.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->status, net::Status::kOk);
}

TEST(Service, StopSendsEveryWatcherATerminalFrame) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  // Several subscribers at different cadences, all mid-stream when the
  // server stops. Each must see streaming frames end in exactly one
  // terminal (non-streaming) kShuttingDown frame, then EOF — the
  // one-response-per-request invariant extended to streams.
  constexpr int kWatchers = 3;
  std::vector<rebootctl::Client> clients;
  for (int i = 0; i < kWatchers; ++i) {
    clients.push_back(connect_client(server));
    ASSERT_TRUE(
        clients.back().send(watch_request(100 + i, 20.0 * (i + 1))));
    const auto first = clients.back().recv();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->streaming);
  }

  std::thread stopper([&server] { server.stop(); });
  for (int i = 0; i < kWatchers; ++i) {
    bool terminal_seen = false;
    for (int frames = 0; frames < 1000 && !terminal_seen; ++frames) {
      std::string error;
      const auto frame = clients[i].recv(&error);
      ASSERT_TRUE(frame.has_value())
          << "watcher " << i << " hit EOF before its terminal frame: "
          << error;
      if (!frame->streaming) {
        terminal_seen = true;
        EXPECT_EQ(frame->id, 100u + i);
        EXPECT_EQ(frame->status, net::Status::kShuttingDown);
      }
    }
    EXPECT_TRUE(terminal_seen);
    // After the terminal frame the stream is over: clean EOF, no stray
    // extra responses.
    std::string error;
    EXPECT_FALSE(clients[i].recv(&error).has_value());
    EXPECT_EQ(error, "connection closed");
  }
  stopper.join();
}

TEST(Service, WatchRejectsMistypedInterval) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  net::Request req;
  req.id = 4;
  req.method = "watch";
  req.params = core::JsonValue::make_object(
      {{"interval_ms", core::JsonValue::make_string("fast")}});
  const auto resp = client.call(req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, net::Status::kBadRequest);
  EXPECT_FALSE(resp->streaming);
}

double rates_dt(const net::Response& frame) {
  return frame.body.at("rates").at("dt_seconds").number();
}

// Each frame after a subscription's first rates against that subscription's
// previous frame, so its window is its own interval, whatever other
// subscribers do. A server that rates every frame against its latest sample
// of all gives the 100 ms subscriber beside a 20 ms one ~20 ms windows.
TEST(Service, WatchRatesCoverTheirOwnInterval) {
  Watchdog watchdog(60s, "WatchRatesCoverTheirOwnInterval");
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client fast = connect_client(server);
  rebootctl::Client slow = connect_client(server);
  ASSERT_TRUE(fast.send(watch_request(1, 20.0)));
  ASSERT_TRUE(slow.send(watch_request(2, 100.0)));
  std::string error;
  for (int i = 0; i < 6; ++i) {
    const auto frame = slow.recv(&error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_TRUE(frame->streaming);
    if (i > 0) {
      EXPECT_GE(rates_dt(*frame), 0.09) << "frame " << i;
    }
  }
  // The fast subscription's frames queued meanwhile; each covers ~20 ms.
  for (int i = 0; i < 6; ++i) {
    const auto frame = fast.recv(&error);
    ASSERT_TRUE(frame.has_value()) << error;
    EXPECT_TRUE(frame->streaming);
    if (i > 0) {
      EXPECT_GE(rates_dt(*frame), 0.018) << "frame " << i;
    }
  }
  server.stop();
}

// A subscription's first frame rates against the server's previous sample,
// which the last `metrics` reply took: a `metrics` call primes the window
// of a later `top --once` (scripts/service_smoke.sh).
TEST(Service, WatchFirstFrameRatesSinceTheLastMetricsCall) {
  Watchdog watchdog(60s, "WatchFirstFrameRatesSinceTheLastMetricsCall");
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  net::Request metrics;
  metrics.id = 1;
  metrics.method = "metrics";
  ASSERT_TRUE(client.call(metrics).has_value());
  std::uint64_t id = 2;
  for (const auto until = Clock::now() + 50ms; Clock::now() < until; ++id)
    ASSERT_TRUE(client.call(submit_spin(id, 1000.0)).has_value());
  ASSERT_TRUE(client.send(watch_request(id, 500.0)));
  std::string error;
  const auto first = client.recv(&error);
  ASSERT_TRUE(first.has_value()) << error;
  EXPECT_TRUE(first->streaming);
  EXPECT_GE(rates_dt(*first), 0.05);
  EXPECT_GT(
      first->body.at("rates").at("per_second").at("net.requests").number(),
      0.0);
  server.stop();
}

TEST(Service, TraceContextIsEchoedOnEveryOutcome) {
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  rebootctl::Client client = connect_client(server);
  // An explicit context (as rebootctl stamps when tracing): the server must
  // echo it whatever the outcome, so the client can close its flow chain.
  net::Request ok = submit_spin(1, 50.0);
  ok.trace_id = (1ull << 60) + 12345;
  ok.parent_span = 1;
  const auto ok_resp = client.call(ok);
  ASSERT_TRUE(ok_resp.has_value());
  EXPECT_EQ(ok_resp->status, net::Status::kOk);
  EXPECT_EQ(ok_resp->trace_id, (1ull << 60) + 12345);

  net::Request bad = submit_spin(2, 50.0);
  bad.work = "no-such-work";
  bad.trace_id = 77;
  const auto bad_resp = client.call(bad);
  ASSERT_TRUE(bad_resp.has_value());
  EXPECT_EQ(bad_resp->status, net::Status::kBadRequest);
  EXPECT_EQ(bad_resp->trace_id, 77u);

  net::Request ping;
  ping.id = 3;
  ping.method = "ping";
  ping.trace_id = 88;
  const auto pong = client.call(ping);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->trace_id, 88u);

  // No context in -> no context out. Sent as a raw frame: a Client in a
  // tracing process stamps a context on every submit, and what is checked
  // here is the server's echo.
  net::Socket raw = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(
      net::write_frame(raw, net::encode_request(submit_spin(4, 50.0))));
  std::string frame;
  ASSERT_EQ(net::read_frame(raw, &frame, net::kMaxFrameBytes),
            net::FrameRead::kFrame);
  const auto plain = net::decode_response(frame);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->id, 4u);
  EXPECT_EQ(plain->trace_id, 0u);
}

// --- the reply path: each reply leaves when its job settles ----------------

/// One counter of the server's registry, read through the metrics verb.
double server_counter(rebootctl::Client& client, const char* name) {
  net::Request req;
  req.id = 1;
  req.method = "metrics";
  const auto resp = client.call(req);
  if (!resp || !resp->body.is_object()) return -1.0;
  const core::JsonValue& counters = resp->body.at("counters");
  return counters.contains(name) ? counters.at(name).number() : 0.0;
}

/// Latencies of one client's calls, checked against the reply-path bound:
/// the 99th percentile within 50 ms, and no call past 1 s. On a shared
/// 4-vCPU host, and more so under TSan, a single call now and then waits
/// tens of ms for a CPU while a flood runs (up to 111 ms seen under TSan,
/// at a 99th percentile of 22-37 ms); a reply held behind another
/// connection never arrives at all.
void expect_replies_keep_arriving(std::vector<Clock::duration> latencies) {
  ASSERT_FALSE(latencies.empty());
  std::sort(latencies.begin(), latencies.end());
  const auto p99 = latencies[latencies.size() * 99 / 100];
  EXPECT_LT(p99, 50ms) << "99th percentile of " << latencies.size()
                       << " calls";
  EXPECT_LT(latencies.back(), 1s) << "slowest of " << latencies.size()
                                  << " calls";
}

/// Reads frames until the stream ends; returns how it ended.
net::FrameRead read_to_end(net::Socket& sock, std::size_t* frames) {
  std::string frame;
  net::FrameRead end;
  while ((end = net::read_frame(sock, &frame, net::kMaxFrameBytes)) ==
         net::FrameRead::kFrame)
    ++*frames;
  return end;
}

net::Request from_tenant(net::Request req, std::string tenant) {
  req.tenant = std::move(tenant);
  return req;
}

net::Request padded_echo(std::uint64_t id, std::size_t pad_bytes) {
  return submit_work(
      id, "echo",
      core::JsonValue::make_object(
          {{"pad",
            core::JsonValue::make_string(std::string(pad_bytes, 'p'))}}));
}

// Two 200 ms spins hold two of four workers, and ten echoes sent behind them
// on the same connection run at once on the other two. Each echo's reply
// must leave when its job settles: before either spin's reply, and within
// 50 ms of its send. A server whose replies wait on the oldest job in
// flight delivers every echo after ~200 ms.
TEST(Service, NoReplyWaitsBehindAnotherJob) {
  Watchdog watchdog(30s, "NoReplyWaitsBehindAnotherJob");
  ServerConfig config;
  config.cpu_workers = 4;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client client = connect_client(server);
  // Warm-up: four concurrent spins give every worker, and the reader, its
  // first job. A thread's first traced event allocates its trace ring,
  // which under TSan with REBOOTING_TRACE costs several ms.
  for (std::uint64_t id = 101; id <= 104; ++id)
    ASSERT_TRUE(client.send(submit_spin(id, 20'000.0)));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.recv().has_value());

  ASSERT_TRUE(client.send(submit_spin(1, 200'000.0)));
  ASSERT_TRUE(client.send(submit_spin(2, 200'000.0)));
  std::map<std::uint64_t, Clock::time_point> sent;
  for (std::uint64_t id = 10; id < 20; ++id) {
    sent[id] = Clock::now();
    ASSERT_TRUE(client.send(submit_work(id, "echo")));
  }
  int echoes = 0;
  for (int i = 0; i < 12; ++i) {
    const auto resp = client.recv();
    const auto arrived = Clock::now();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, net::Status::kOk) << "id " << resp->id;
    if (resp->id <= 2) {
      EXPECT_EQ(echoes, 10) << "spin " << resp->id << " replied before the "
                            << "echoes queued behind it";
      continue;
    }
    ++echoes;
    EXPECT_LT(arrived - sent.at(resp->id), 50ms) << "echo " << resp->id;
  }
  EXPECT_EQ(echoes, 10);
}

// Client A pipelines echo submits carrying a 400-byte param and never reads
// its replies, while client B makes echo calls. B's replies must keep
// arriving within 50 ms. Once A's unwritten replies pass the outbox cap the
// server shuts A's connection: A's writes fail, and reading what reached it
// ends in EOF or a reset, short of a reply per request. Then stop() must
// return. A server that writes replies with blocking writes shared across
// connections leaves B waiting forever; the watchdog makes that a failure.
// A and B are distinct tenants, so fair share keeps B's jobs ahead of A's
// backlog in the queue: what B measures is the reply path.
TEST(Service, ClientThatStopsReadingStallsOnlyItself) {
  Watchdog watchdog(120s, "ClientThatStopsReadingStallsOnlyItself");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client b = connect_client(server);
  const double overflows = server_counter(b, "net.outbox_overflow");

  net::Socket a = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(a.valid());
  std::atomic<bool> a_cut{false};
  std::uint64_t a_sent = 0;
  std::thread flood([&] {
    // A never reads, so one frame sent over and over (same id) will do.
    const std::string frame =
        net::encode_request(from_tenant(padded_echo(1, 400), "a"));
    while (net::write_frame(a, frame)) ++a_sent;
    a_cut.store(true);
  });

  std::vector<Clock::duration> latencies;
  while (!a_cut.load() || latencies.size() < 50) {
    const std::uint64_t id = latencies.size() + 1;
    const net::Request echo = from_tenant(submit_work(id, "echo"), "b");
    const auto start = Clock::now();
    const auto resp = b.call(echo);
    latencies.push_back(Clock::now() - start);
    ASSERT_TRUE(resp.has_value()) << "call " << id;
    EXPECT_EQ(resp->id, id);
    // A's flood may fill the queue to its high-water mark: an overloaded
    // answer is still an answer.
    EXPECT_TRUE(resp->status == net::Status::kOk ||
                resp->status == net::Status::kOverloaded)
        << "call " << id << ": " << net::to_string(resp->status);
  }
  flood.join();
  expect_replies_keep_arriving(std::move(latencies));
  EXPECT_GE(server_counter(b, "net.outbox_overflow"), overflows + 1.0);

  std::size_t a_replies = 0;
  const net::FrameRead end = read_to_end(a, &a_replies);
  EXPECT_TRUE(end == net::FrameRead::kEof || end == net::FrameRead::kError);
  EXPECT_LT(a_replies, a_sent);
  server.stop();
}

// The same for a `watch` subscriber: W opens 64 subscriptions (a metrics
// frame each every 20 ms) and never reads. B's calls keep their 50 ms, the
// server shuts W's connection once its outbox passes the cap, W reads to
// EOF or a reset, and stop() returns.
TEST(Service, WatchSubscriberThatStopsReadingStallsOnlyItself) {
  Watchdog watchdog(120s, "WatchSubscriberThatStopsReadingStallsOnlyItself");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client b = connect_client(server);
  const double overflows = server_counter(b, "net.outbox_overflow");

  net::Socket w = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(w.valid());
  for (std::uint64_t id = 1; id <= 64; ++id)
    ASSERT_TRUE(
        net::write_frame(w, net::encode_request(watch_request(id, 20.0))));

  std::vector<Clock::duration> latencies;
  bool cut = false;
  while (!cut || latencies.size() < 50) {
    const std::uint64_t id = latencies.size() + 1;
    const auto start = Clock::now();
    const auto resp = b.call(submit_work(id, "echo"));
    latencies.push_back(Clock::now() - start);
    ASSERT_TRUE(resp.has_value()) << "call " << id;
    EXPECT_EQ(resp->status, net::Status::kOk);
    if (id % 10 == 0)
      cut = server_counter(b, "net.outbox_overflow") >= overflows + 1.0;
  }
  expect_replies_keep_arriving(std::move(latencies));

  std::size_t frames = 0;  // none, if the cap fell before the first write
  const net::FrameRead end = read_to_end(w, &frames);
  EXPECT_TRUE(end == net::FrameRead::kEof || end == net::FrameRead::kError);
  server.stop();
}

// --- a reader that holds more than its socket takes ------------------------

/// Echo submits of 32 KiB each, pipelined on one connection: 6 MiB of
/// replies, more than loopback's socket buffers hold for a peer that reads
/// none of them (~4 MiB here) and less than those buffers plus the outbox
/// cap. So a client that stops reading leaves its reader holding a
/// part-written batch with more replies queued behind it, and is not cut off.
constexpr std::uint64_t kBigReplies = 192;

void pipeline_big_echoes(net::Socket& sock) {
  for (std::uint64_t id = 1; id <= kBigReplies; ++id)
    ASSERT_TRUE(net::write_frame(
        sock, net::encode_request(padded_echo(id, 32 * 1024))));
}

/// Calls `status` until `ready` holds of its body; false if it never did
/// within 10 s.
template <typename Ready>
bool wait_for_status(rebootctl::Client& probe, Ready ready) {
  net::Request status;
  status.id = 1;
  status.method = "status";
  for (const auto give_up = Clock::now() + 10s; Clock::now() < give_up;
       std::this_thread::sleep_for(2ms)) {
    const auto resp = probe.call(status);
    if (resp && resp->body.is_object() && ready(resp->body)) return true;
  }
  return false;
}

/// Reads kBigReplies replies and checks that each id came back once, ok.
void expect_every_big_reply(net::Socket& sock) {
  std::vector<int> seen(kBigReplies + 1, 0);
  std::string frame;
  for (std::uint64_t i = 0; i < kBigReplies; ++i) {
    ASSERT_EQ(net::read_frame(sock, &frame, net::kMaxFrameBytes),
              net::FrameRead::kFrame)
        << "after " << i << " of " << kBigReplies << " replies";
    const auto resp = net::decode_response(frame);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, net::Status::kOk) << "id " << resp->id;
    ASSERT_TRUE(resp->id >= 1 && resp->id <= kBigReplies) << resp->id;
    ++seen[resp->id];
  }
  for (std::uint64_t id = 1; id <= kBigReplies; ++id)
    EXPECT_EQ(seen[id], 1) << "id " << id;
}

// The client pipelines its submits and reads nothing for 0.5 s, so replies
// that settle while a batch is part-written queue behind it. Once the client
// reads, every reply must arrive: a reader that takes its queue only when
// woken leaves it there for good, and this client would wait forever.
TEST(Service, RepliesQueuedBehindAFullSocketAllArrive) {
  Watchdog watchdog(60s, "RepliesQueuedBehindAFullSocketAllArrive");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  net::Socket c = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(c.valid());
  ASSERT_NO_FATAL_FAILURE(pipeline_big_echoes(c));
  std::this_thread::sleep_for(500ms);
  ASSERT_NO_FATAL_FAILURE(expect_every_big_reply(c));
  server.stop();
}

// The same with a client that half-closes after its last submit: its reader
// reads EOF while it still holds replies, writes them all, and only then
// closes, so the client reads every reply and then EOF.
TEST(Service, HalfClosedClientGetsEveryQueuedReply) {
  Watchdog watchdog(60s, "HalfClosedClientGetsEveryQueuedReply");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  net::Socket c = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(c.valid());
  ASSERT_NO_FATAL_FAILURE(pipeline_big_echoes(c));
  ASSERT_EQ(::shutdown(c.fd(), SHUT_WR), 0);
  std::this_thread::sleep_for(500ms);
  ASSERT_NO_FATAL_FAILURE(expect_every_big_reply(c));
  std::size_t extra = 0;
  EXPECT_EQ(read_to_end(c, &extra), net::FrameRead::kEof);
  EXPECT_EQ(extra, 0u);
  server.stop();
}

/// stop() with a client that reads nothing holding part of its replies,
/// then what reached it: EOF or a reset, after at most `sent` frames.
void expect_stop_returns(Server& server, net::Socket& client,
                         std::uint64_t sent) {
  const auto start = Clock::now();
  server.stop();
  EXPECT_LT(Clock::now() - start, 10s);
  std::size_t frames = 0;
  const net::FrameRead end = read_to_end(client, &frames);
  EXPECT_TRUE(end == net::FrameRead::kEof || end == net::FrameRead::kError);
  EXPECT_LE(frames, sent);
}

// stop() returns even while a client that never reads is owed replies: its
// reader gives up on an outbox the peer takes no byte of for a while. Where
// the socket buffers are larger than here, the reader simply writes
// everything.
TEST(Service, StopReturnsWhileAClientIgnoresItsReplies) {
  Watchdog watchdog(60s, "StopReturnsWhileAClientIgnoresItsReplies");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  net::Socket c = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(c.valid());
  ASSERT_NO_FATAL_FAILURE(pipeline_big_echoes(c));
  rebootctl::Client probe = connect_client(server);
  EXPECT_TRUE(wait_for_status(probe, [](const core::JsonValue& body) {
    return body.at("submitted").number() >= kBigReplies;
  }));
  expect_stop_returns(server, c, kBigReplies);
}

// The same with a 2 s spin still running at stop(): the reader is owed its
// reply, so it keeps waiting to write. The spin's reply, queued behind the
// unwritten ones during Scheduler::shutdown(), settles the last thing the
// reader is owed; that must wake it, or stop() never returns.
TEST(Service, StopReturnsWhileAClientIgnoresItsRepliesAndAJobRuns) {
  Watchdog watchdog(60s,
                    "StopReturnsWhileAClientIgnoresItsRepliesAndAJobRuns");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  net::Socket c = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(c.valid());
  ASSERT_TRUE(net::write_frame(
      c, net::encode_request(submit_spin(kBigReplies + 1, 2'000'000.0))));
  ASSERT_NO_FATAL_FAILURE(pipeline_big_echoes(c));
  rebootctl::Client probe = connect_client(server);
  // Every echo settled, the spin still running.
  EXPECT_TRUE(wait_for_status(probe, [](const core::JsonValue& body) {
    return body.at("submitted").number() >= kBigReplies + 1 &&
           body.at("outstanding").number() <= 1;
  }));
  expect_stop_returns(server, c, kBigReplies + 1);
}

// The same for a `watch` subscriber below the cap: its echo replies fill
// the socket, then it subscribes (a frame every 20 ms) and reads nothing.
// The terminal frame stop() owes it lands behind the queued frames, and it
// must still let the reader go.
TEST(Service, StopReturnsWhileAWatcherIgnoresItsFrames) {
  Watchdog watchdog(60s, "StopReturnsWhileAWatcherIgnoresItsFrames");
  ServerConfig config;
  config.cpu_workers = 2;
  Server server(config);
  ASSERT_TRUE(server.start());
  rebootctl::Client probe = connect_client(server);
  const double subscribed = server_counter(probe, "net.watch_subscribed");
  net::Socket w = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(w.valid());
  ASSERT_NO_FATAL_FAILURE(pipeline_big_echoes(w));
  ASSERT_TRUE(net::write_frame(
      w, net::encode_request(watch_request(kBigReplies + 1, 20.0))));
  EXPECT_TRUE(wait_for_status(probe, [](const core::JsonValue& body) {
    return body.at("submitted").number() >= kBigReplies &&
           body.at("outstanding").number() == 0;
  }));
  for (const auto give_up = Clock::now() + 10s;
       server_counter(probe, "net.watch_subscribed") < subscribed + 1.0 &&
       Clock::now() < give_up;)
    std::this_thread::sleep_for(2ms);
  std::this_thread::sleep_for(100ms);  // a few frames queue behind the rest
  expect_stop_returns(server, w, std::numeric_limits<std::uint64_t>::max());
}

// A subscriber that half-closes keeps getting frames: its watch keeps the
// reader writing after it reads EOF, until stop() ends the stream with
// exactly one terminal frame, then EOF.
TEST(Service, HalfClosedWatcherStreamsUntilStop) {
  Watchdog watchdog(60s, "HalfClosedWatcherStreamsUntilStop");
  ServerConfig config;
  config.cpu_workers = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  net::Socket w = net::connect_to("127.0.0.1", server.port());
  ASSERT_TRUE(w.valid());
  ASSERT_TRUE(
      net::write_frame(w, net::encode_request(watch_request(7, 20.0))));
  ASSERT_EQ(::shutdown(w.fd(), SHUT_WR), 0);
  std::string frame;
  for (int i = 0; i < 3; ++i) {  // the first frame, then two streamed ones
    ASSERT_EQ(net::read_frame(w, &frame, net::kMaxFrameBytes),
              net::FrameRead::kFrame)
        << "frame " << i;
    const auto resp = net::decode_response(frame);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->id, 7u);
    EXPECT_TRUE(resp->streaming) << "frame " << i;
  }

  // The frames still to come fit in the socket buffers, so stop() returns
  // without this thread reading them.
  server.stop();
  std::size_t terminal = 0;
  net::FrameRead end;
  while ((end = net::read_frame(w, &frame, net::kMaxFrameBytes)) ==
         net::FrameRead::kFrame) {
    const auto resp = net::decode_response(frame);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->id, 7u);
    if (resp->streaming) {
      EXPECT_EQ(terminal, 0u) << "a streamed frame after the terminal one";
      continue;
    }
    ++terminal;
    EXPECT_EQ(resp->status, net::Status::kShuttingDown);
  }
  EXPECT_EQ(terminal, 1u);
  EXPECT_EQ(end, net::FrameRead::kEof);
}

// --- tenancy unit tests ---------------------------------------------------

TEST(Tenancy, TokenBucketRefillsAtTheConfiguredRate) {
  TenancyConfig config;
  config.default_quota = {.rate_per_s = 10.0, .burst = 2.0};
  TenantGovernor governor(config);

  const auto t0 = Clock::now();
  EXPECT_TRUE(governor.admit("a", t0).admitted);
  EXPECT_TRUE(governor.admit("a", t0).admitted);
  const Admission rejected = governor.admit("a", t0);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_NEAR(rejected.retry_after_ms, 100.0, 1.0);

  // 100 ms later exactly one token has refilled (synthetic clock — the
  // governor takes `now` as an argument precisely so this is testable).
  EXPECT_TRUE(governor.admit("a", t0 + 100ms).admitted);
  EXPECT_FALSE(governor.admit("a", t0 + 100ms).admitted);

  // Quotas are per tenant: "b" still has its full burst.
  EXPECT_TRUE(governor.admit("b", t0).admitted);
}

TEST(Tenancy, FairShareBiasGrowsWithInFlightAndRecoversOnRelease) {
  TenancyConfig config;
  config.fair_share_stride = 4;
  config.max_priority_penalty = 2;
  TenantGovernor governor(config);
  const auto t0 = Clock::now();

  std::vector<int> biases;
  for (int i = 0; i < 13; ++i) biases.push_back(governor.admit("a", t0).priority_bias);
  // in_flight 0..3 -> 0, 4..7 -> -1, 8..11 -> -2, 12 -> clamped at -2.
  EXPECT_EQ(biases[0], 0);
  EXPECT_EQ(biases[3], 0);
  EXPECT_EQ(biases[4], -1);
  EXPECT_EQ(biases[8], -2);
  EXPECT_EQ(biases[12], -2);

  // A light tenant is not penalized by the heavy one's backlog.
  EXPECT_EQ(governor.admit("b", t0).priority_bias, 0);

  for (int i = 0; i < 13; ++i) governor.release("a");
  EXPECT_EQ(governor.admit("a", t0).priority_bias, 0);
  EXPECT_EQ(governor.stats().at("a").in_flight, 1u);
}

}  // namespace
}  // namespace rebooting::rebootd
