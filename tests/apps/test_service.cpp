// End-to-end service tests: a real rebootd::Server on an ephemeral port,
// driven by real sockets — admission control, memoized deduplication,
// tenancy, teardown accounting, and the connection-level failure modes. Runs
// under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "rebootctl/client.h"
#include "rebootd/server.h"
#include "rebootd/tenancy.h"

namespace rebooting::rebootd {
namespace {

using namespace std::chrono_literals;

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
  config.pump_threads = 2;
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

  // No context in -> no context out.
  const auto plain = client.call(submit_spin(4, 50.0));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->trace_id, 0u);
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
