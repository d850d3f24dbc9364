// rebootd loopback throughput bench — gates the service tier's wire path
// (framing, decode, admission, scheduler round trip, response fan-in) with a
// machine-readable BENCH_service.json.
//
// Setup: one in-process Server on 127.0.0.1:<ephemeral>, classical-cpu pool
// only, no memoization (every echo runs). kThreads client threads each hold
// one pipelined connection with kWindow "echo" submits in flight and exact
// accounting: at the end, sent == received and every response id was seen
// exactly once.
//
// The gate is deliberately conservative — kMinRps is an order of magnitude
// below what the loopback path sustains on the 4-vCPU CI runners — because
// this bench exists to catch a collapse of the pipelined path (a reader
// blocking on the queue, replies serializing on the wrong lock), not to chase
// a peak number. Latency quantiles come from the server-side
// net.request_seconds histogram via a status call, the same numbers the
// loadgen soak prints.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "net/protocol.h"
#include "rebootctl/client.h"
#include "rebootd/server.h"

using namespace rebooting;
using bench::Better;
using core::Real;

namespace {

constexpr std::size_t kThreads = 2;
constexpr std::size_t kWindow = 32;
constexpr double kSeconds = 2.0;
constexpr Real kMinRps = 2000.0;

using Clock = std::chrono::steady_clock;

struct WorkerTally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t other = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t duplicates = 0;
};

net::Request echo_request(std::uint64_t id) {
  net::Request req;
  req.id = id;
  req.method = "submit";
  req.tenant = "bench";
  req.work = "echo";
  return req;
}

void worker(std::uint16_t port, std::size_t index, Clock::time_point deadline,
            WorkerTally* tally) {
  rebootctl::Client client;
  std::string error;
  if (!client.connect("127.0.0.1", port, &error)) {
    std::cerr << "worker " << index << ": connect failed: " << error << '\n';
    tally->transport_errors = 1;
    return;
  }

  std::unordered_set<std::uint64_t> outstanding;
  std::uint64_t seq = 0;
  const auto take_one = [&]() -> bool {
    const auto resp = client.recv(&error);
    if (!resp.has_value()) {
      tally->transport_errors += outstanding.size();
      outstanding.clear();
      return false;
    }
    if (outstanding.erase(resp->id) == 0) {
      // Seen twice or never sent — either way the accounting is broken.
      ++tally->duplicates;
      return true;
    }
    ++(resp->status == net::Status::kOk ? tally->ok : tally->other);
    return true;
  };

  while (Clock::now() < deadline) {
    while (outstanding.size() < kWindow) {
      const std::uint64_t id =
          (static_cast<std::uint64_t>(index) << 40) | ++seq;
      if (!client.send(echo_request(id), &error)) {
        tally->transport_errors += outstanding.size() + 1;
        outstanding.clear();
        return;
      }
      outstanding.insert(id);
      ++tally->sent;
    }
    if (!take_one()) return;
  }
  while (!outstanding.empty())
    if (!take_one()) return;
  client.close();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("service_echo", "BENCH_service.json", argc, argv);
  core::print_banner(std::cout,
                     "rebootd loopback echo — pipelined wire-path throughput");
  report.param("threads", kThreads);
  report.param("window", kWindow);

  rebootd::ServerConfig config;
  config.cpu_workers = 2;
  config.queue_capacity = 512;
  rebootd::Server server(config);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "server start failed: " << error << '\n';
    return 3;
  }

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kSeconds));
  std::vector<WorkerTally> tallies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back(worker, server.port(), i, deadline, &tallies[i]);
  for (auto& t : threads) t.join();
  const Real elapsed =
      std::chrono::duration<Real>(Clock::now() - start).count();

  WorkerTally total;
  for (const auto& t : tallies) {
    total.sent += t.sent;
    total.ok += t.ok;
    total.other += t.other;
    total.transport_errors += t.transport_errors;
    total.duplicates += t.duplicates;
  }
  report.param("seconds", elapsed);
  report.param("sent", total.sent);
  report.measure("ok", "count", total.ok, Better::kHigher);
  report.measure("non_ok", "count", total.other, Better::kLower);
  report.measure("transport_errors", "count", total.transport_errors,
                 Better::kLower);
  report.check("accounting_balanced",
               total.ok + total.other + total.transport_errors == total.sent &&
                   total.duplicates == 0);
  report.gate("throughput", "1/s", static_cast<Real>(total.ok) / elapsed,
              Better::kHigher, kMinRps);

  // Server-side quantiles over the whole run, then a clean stop.
  {
    rebootctl::Client client;
    if (client.connect("127.0.0.1", server.port(), &error)) {
      net::Request req;
      req.id = 1;
      req.method = "status";
      if (const auto resp = client.call(req, &error);
          resp.has_value() && resp->status == net::Status::kOk) {
        const core::JsonValue& latency = resp->body.at("latency");
        report.measure("server_p50", "ms",
                       latency.at("p50_seconds").number() * 1e3,
                       Better::kLower);
        report.measure("server_p99", "ms",
                       latency.at("p99_seconds").number() * 1e3,
                       Better::kLower);
        report.param("server_requests", latency.at("count").number());
      }
    }
  }
  server.stop();

  return report.finish();
}
