// loadgen — pipelined traffic generator that drives a fleet of rebootd
// shards as one logical service and proves the accounting invariant: every
// request it writes ends in exactly one bucket (a typed response status, or
// a transport error when the shard died with the request in flight) — none
// lost, none answered twice.
//
//   loadgen --shards 127.0.0.1:4700,127.0.0.1:4701 --threads 4
//           --seconds 10 --window 32 --work spin --micros 50 --min-rps 10000
//
// Each worker thread opens one connection per shard and keeps up to --window
// requests in flight per connection (pipelining decouples throughput from
// round-trip latency). Requests are routed over the shards by consistent
// hash of "tenant/seq"; a connection failure marks that shard down in the
// thread's router, counts its in-flight requests as transport errors, and
// the remaining traffic re-routes to the survivors — the mid-storm
// shard-kill scenario of the service smoke test.
//
// Exit codes: 0 success; 1 accounting violation (lost or duplicated
// response); 2 no request succeeded; 3 --min-rps not met.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "rebootctl/client.h"
#include "rebootctl/router.h"
#include "telemetry/trace.h"

namespace {

using namespace rebooting;
using Clock = std::chrono::steady_clock;

struct Options {
  std::vector<rebootctl::ShardAddress> shards;
  std::size_t threads = 2;
  double seconds = 5.0;
  std::uint64_t requests = 0;  ///< 0 = until --seconds elapse
  std::size_t window = 32;
  std::string work = "spin";
  double micros = 50.0;
  std::size_t tenants = 4;
  bool memo = false;  ///< server-side memoization (Request::memo)
  double min_rps = 0.0;
};

/// Per-thread tallies, merged after join. Buckets are mutually exclusive.
struct Tally {
  std::uint64_t sent = 0;       ///< frames written successfully
  std::uint64_t attempted = 0;  ///< sent + writes that failed
  std::uint64_t transport_errors = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t backoffs = 0;  ///< retry_after_ms hints honored
  std::map<net::Status, std::uint64_t> by_status;

  std::uint64_t responses() const {
    std::uint64_t n = 0;
    for (const auto& [status, count] : by_status) n += count;
    return n;
  }
};

struct ShardConn {
  rebootctl::Client client;
  /// Outstanding request ids on this connection (id -> unused slot; a map so
  /// response ids can be checked for membership exactly once).
  std::map<std::uint64_t, bool> outstanding;
  /// Earliest instant the shard wants to see the next submit — the
  /// retry_after_ms hint from its last overloaded/quota rejection.
  Clock::time_point backoff_until{};
};

void fail_shard(rebootctl::ShardRouter& router,
                const rebootctl::ShardAddress& shard, ShardConn& conn,
                Tally& tally) {
  router.mark_down(shard);
  conn.client.close();
  tally.transport_errors += conn.outstanding.size();
  conn.outstanding.clear();
}

/// Receives one response on `conn`; false when the connection died.
bool recv_one(ShardConn& conn, Tally& tally) {
  std::string error;
  const auto resp = conn.client.recv(&error);
  if (!resp) return false;
  const auto it = conn.outstanding.find(resp->id);
  if (it == conn.outstanding.end()) {
    ++tally.duplicates;  // unknown or already-answered id
    return true;
  }
  conn.outstanding.erase(it);
  ++tally.by_status[resp->status];
  // Honor the server's pacing hint: after an overload/quota rejection with a
  // retry_after_ms, hold further submits to this shard until the hinted
  // instant instead of hammering it.
  if ((resp->status == net::Status::kOverloaded ||
       resp->status == net::Status::kQuotaExceeded) &&
      resp->retry_after_ms && *resp->retry_after_ms > 0.0) {
    const auto until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               *resp->retry_after_ms));
    if (until > conn.backoff_until) conn.backoff_until = until;
  }
  return true;
}

void worker(const Options& opts, std::size_t thread_index,
            std::atomic<bool>& stop, Tally& tally) {
  telemetry::TraceRecorder::instance().set_thread_name(
      "loadgen worker " + std::to_string(thread_index));
  rebootctl::ShardRouter router(opts.shards);
  std::map<std::string, ShardConn> conns;  // keyed host:port
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  const std::uint64_t quota =
      opts.requests ? opts.requests / opts.threads : ~0ull;

  std::uint64_t seq = 0;
  while (!stop.load(std::memory_order_relaxed) && tally.attempted < quota &&
         Clock::now() < deadline) {
    const std::string tenant =
        "tenant-" + std::to_string(seq % opts.tenants);
    const auto shard = router.route(tenant + "/" + std::to_string(seq));
    if (!shard) break;  // every shard is down
    const std::string conn_key =
        shard->host + ":" + std::to_string(shard->port);
    ShardConn& conn = conns[conn_key];
    if (!conn.client.connected()) {
      std::string error;
      if (!conn.client.connect(shard->host, shard->port, &error)) {
        fail_shard(router, *shard, conn, tally);
        continue;  // re-route; nothing was attempted
      }
    }

    // Back off while the shard's retry_after hint is live (capped per
    // iteration so a large hint cannot freeze the thread past --seconds, and
    // so responses keep draining meanwhile).
    if (const auto now = Clock::now(); conn.backoff_until > now) {
      ++tally.backoffs;
      std::this_thread::sleep_for(std::min<Clock::duration>(
          conn.backoff_until - now, std::chrono::milliseconds(20)));
    }

    net::Request req;
    req.id = (static_cast<std::uint64_t>(thread_index) << 40) | ++seq;
    req.method = "submit";
    req.tenant = tenant;
    req.work = opts.work;
    req.memo = opts.memo;
    core::JsonValue::Members params;
    if (opts.work == "spin")
      params.emplace_back("micros", core::JsonValue::make_number(opts.micros));
    if (opts.work == "sat")
      // --memo draws seeds from a small pool so repeats hit the result
      // cache; otherwise every request is a distinct formula.
      params.emplace_back(
          "seed", core::JsonValue::make_number(
                      opts.memo ? static_cast<double>(seq % 8)
                                : static_cast<double>(req.id)));
    if (!params.empty())
      req.params = core::JsonValue::make_object(std::move(params));

    ++tally.attempted;
    if (!conn.client.send(req)) {
      ++tally.transport_errors;  // this request, then its window-mates
      fail_shard(router, *shard, conn, tally);
      continue;
    }
    ++tally.sent;
    conn.outstanding.emplace(req.id, true);

    while (conn.outstanding.size() >= opts.window) {
      if (!recv_one(conn, tally)) {
        fail_shard(router, *shard, conn, tally);
        break;
      }
    }
  }

  // Drain: every in-flight request still gets its response (or its shard's
  // death turns it into a transport error). Nothing may stay unaccounted.
  for (auto& [key, conn] : conns) {
    while (!conn.outstanding.empty()) {
      if (!recv_one(conn, tally)) {
        tally.transport_errors += conn.outstanding.size();
        conn.outstanding.clear();
      }
    }
    conn.client.close();
  }
}

void print_server_latency(const Options& opts) {
  for (const auto& shard : opts.shards) {
    rebootctl::Client client;
    if (!client.connect(shard.host, shard.port)) {
      std::printf("shard %s:%u: down\n", shard.host.c_str(), shard.port);
      continue;
    }
    net::Request req;
    req.id = 1;
    req.method = "status";
    const auto resp = client.call(req);
    if (!resp || !resp->body.is_object() ||
        !resp->body.contains("latency")) {
      std::printf("shard %s:%u: no status\n", shard.host.c_str(), shard.port);
      continue;
    }
    const auto& latency = resp->body.at("latency");
    std::printf("shard %s:%u: served %.0f  p50 %.3f ms  p99 %.3f ms\n",
                shard.host.c_str(), shard.port,
                latency.at("count").number(),
                latency.at("p50_seconds").number() * 1e3,
                latency.at("p99_seconds").number() * 1e3);
  }
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --shards H:P[,H:P...] [--threads N] [--seconds F]\n"
               "          [--requests N] [--window N] [--work W] [--micros F]\n"
               "          [--tenants N] [--memo] [--min-rps F]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (!std::strcmp(arg, "--shards")) {
      std::string list = next();
      std::size_t start = 0;
      while (start < list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        const std::string entry = list.substr(start, comma - start);
        const std::size_t colon = entry.rfind(':');
        if (colon == std::string::npos) usage(argv[0]);
        opts.shards.push_back(
            {entry.substr(0, colon),
             static_cast<std::uint16_t>(std::atoi(entry.c_str() + colon + 1))});
        start = comma + 1;
      }
    } else if (!std::strcmp(arg, "--threads")) {
      opts.threads = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(arg, "--seconds")) {
      opts.seconds = std::atof(next());
    } else if (!std::strcmp(arg, "--requests")) {
      opts.requests = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (!std::strcmp(arg, "--window")) {
      opts.window = static_cast<std::size_t>(std::atoi(next()));
    } else if (!std::strcmp(arg, "--work")) {
      opts.work = next();
    } else if (!std::strcmp(arg, "--micros")) {
      opts.micros = std::atof(next());
    } else if (!std::strcmp(arg, "--tenants")) {
      opts.tenants = std::max(1, std::atoi(next()));
    } else if (!std::strcmp(arg, "--memo")) {
      opts.memo = true;
    } else if (!std::strcmp(arg, "--min-rps")) {
      opts.min_rps = std::atof(next());
    } else {
      usage(argv[0]);
    }
  }
  if (opts.shards.empty() || opts.threads == 0 || opts.window == 0)
    usage(argv[0]);

  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(opts.threads);
  std::vector<std::thread> threads;
  const auto started = Clock::now();
  for (std::size_t t = 0; t < opts.threads; ++t)
    threads.emplace_back(
        [&, t] { worker(opts, t, stop, tallies[t]); });
  for (auto& thread : threads) thread.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - started).count();

  Tally total;
  for (const Tally& tally : tallies) {
    total.sent += tally.sent;
    total.attempted += tally.attempted;
    total.transport_errors += tally.transport_errors;
    total.duplicates += tally.duplicates;
    total.backoffs += tally.backoffs;
    for (const auto& [status, count] : tally.by_status)
      total.by_status[status] += count;
  }

  const std::uint64_t accounted = total.responses() + total.transport_errors;
  std::printf("attempted %llu in %.2f s  (%.0f req/s)\n",
              static_cast<unsigned long long>(total.attempted), elapsed,
              static_cast<double>(total.attempted) / elapsed);
  for (const auto& [status, count] : total.by_status)
    std::printf("  %-16s %llu\n", net::to_string(status).c_str(),
                static_cast<unsigned long long>(count));
  std::printf("  %-16s %llu\n", "transport_error",
              static_cast<unsigned long long>(total.transport_errors));
  if (total.backoffs > 0)
    std::printf("  %-16s %llu\n", "backoffs",
                static_cast<unsigned long long>(total.backoffs));
  print_server_latency(opts);

  if (accounted != total.attempted || total.duplicates > 0) {
    std::printf("ACCOUNTING VIOLATION: attempted %llu != accounted %llu "
                "(duplicates %llu)\n",
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(accounted),
                static_cast<unsigned long long>(total.duplicates));
    return 1;
  }
  std::printf("accounting balanced: %llu attempted == %llu accounted\n",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(accounted));
  if (total.by_status[net::Status::kOk] == 0) {
    std::printf("FAILED: no request succeeded\n");
    return 2;
  }
  const double rps = static_cast<double>(total.attempted) / elapsed;
  if (opts.min_rps > 0.0 && rps < opts.min_rps) {
    std::printf("FAILED: %.0f req/s below --min-rps %.0f\n", rps,
                opts.min_rps);
    return 3;
  }
  return 0;
}
