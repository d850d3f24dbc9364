#include "rebootctl/top.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/json.h"
#include "core/table.h"
#include "net/protocol.h"
#include "rebootctl/client.h"

namespace rebooting::rebootctl {

namespace {

using core::JsonValue;

const JsonValue* find(const JsonValue& obj, const char* key) {
  if (!obj.is_object() || !obj.contains(key)) return nullptr;
  return &obj.at(key);
}

double num_or(const JsonValue& obj, const char* key, double fallback = 0.0) {
  const JsonValue* v = find(obj, key);
  if (v == nullptr || v->type() != JsonValue::Type::kNumber) return fallback;
  return v->number();
}

/// "host:port" -> pair; a bare "4700" means 127.0.0.1. Returns false on an
/// unparseable port.
bool parse_shard(const std::string& spec, std::string* host,
                 std::uint16_t* port) {
  std::string port_text = spec;
  *host = "127.0.0.1";
  const auto colon = spec.rfind(':');
  if (colon != std::string::npos) {
    *host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  const long value = std::strtol(port_text.c_str(), nullptr, 10);
  if (value <= 0 || value > 65535) return false;
  *port = static_cast<std::uint16_t>(value);
  return true;
}

struct PoolRow {
  std::string pool;
  double depth = 0.0;
  double capacity = 0.0;
  double in_flight = 0.0;
  double workers = 0.0;
  double breakers_open = 0.0;
};

/// Everything one table row set / one JSON shard entry needs, extracted from
/// a `watch` frame body (and the previous frame, for client-side scheduler
/// rates — those counters live in Scheduler::stats(), not the registry, so
/// the server cannot rate them for us).
struct ShardView {
  std::string shard;
  bool ok = false;
  std::string error;
  double t_seconds = 0.0;
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double queue_depth = 0.0;
  double outstanding = 0.0;
  double preempts_per_s = 0.0;
  double steals_per_s = 0.0;
  double slices_per_s = 0.0;
  std::vector<PoolRow> pools;
  JsonValue pools_json;  ///< verbatim body.pools for --json passthrough
  JsonValue sched_json;  ///< verbatim body.sched (absolute counts)
  JsonValue cache_json;  ///< verbatim body.cache (per-cache hit/miss counts)
};

ShardView extract(const std::string& shard, const JsonValue& body,
                  const JsonValue& prev) {
  ShardView view;
  view.shard = shard;
  view.ok = true;
  view.t_seconds = num_or(body, "t_seconds");
  view.outstanding = num_or(body, "outstanding");

  if (const JsonValue* rates = find(body, "rates"))
    if (const JsonValue* per_second = find(*rates, "per_second"))
      view.req_per_s = num_or(*per_second, "net.requests");

  if (const JsonValue* histograms = find(body, "histograms"))
    if (const JsonValue* latency = find(*histograms, "net.request_seconds")) {
      view.p50_ms = num_or(*latency, "p50") * 1.0e3;
      view.p99_ms = num_or(*latency, "p99") * 1.0e3;
    }

  if (const JsonValue* pools = find(body, "pools")) {
    view.pools_json = *pools;
    for (const auto& [name, pool] : pools->object()) {
      PoolRow row;
      row.pool = name;
      row.depth = num_or(pool, "queue_depth");
      row.capacity = num_or(pool, "queue_capacity");
      row.in_flight = num_or(pool, "in_flight");
      row.workers = num_or(pool, "workers");
      row.breakers_open = num_or(pool, "breakers_open");
      view.queue_depth += row.depth;
      view.pools.push_back(std::move(row));
    }
  }

  if (const JsonValue* sched = find(body, "sched")) {
    view.sched_json = *sched;
    const double dt = view.t_seconds - num_or(prev, "t_seconds");
    const JsonValue* prev_sched = find(prev, "sched");
    if (dt > 0.0 && prev_sched != nullptr) {
      const auto rate = [&](const char* key) {
        return (num_or(*sched, key) - num_or(*prev_sched, key)) / dt;
      };
      view.preempts_per_s = rate("preempts");
      view.steals_per_s = rate("steals");
      view.slices_per_s = rate("slices");
    }
  }

  if (const JsonValue* cache = find(body, "cache")) view.cache_json = *cache;
  return view;
}

JsonValue json_of_view(const ShardView& view) {
  const auto num = [](double v) { return JsonValue::make_number(v); };
  JsonValue::Members m;
  m.emplace_back("shard", JsonValue::make_string(view.shard));
  m.emplace_back("ok", JsonValue::make_bool(view.ok));
  if (!view.ok) {
    m.emplace_back("error", JsonValue::make_string(view.error));
    return JsonValue::make_object(std::move(m));
  }
  m.emplace_back("t_seconds", num(view.t_seconds));
  m.emplace_back("req_per_s", num(view.req_per_s));
  m.emplace_back("p50_ms", num(view.p50_ms));
  m.emplace_back("p99_ms", num(view.p99_ms));
  m.emplace_back("queue_depth", num(view.queue_depth));
  m.emplace_back("outstanding", num(view.outstanding));
  if (!view.pools_json.is_null()) m.emplace_back("pools", view.pools_json);
  if (!view.sched_json.is_null()) m.emplace_back("sched", view.sched_json);
  if (!view.cache_json.is_null()) m.emplace_back("cache", view.cache_json);
  return JsonValue::make_object(std::move(m));
}

std::string render_table(const std::vector<ShardView>& views) {
  core::Table table({"shard", "pool", "depth", "infl", "brk", "req/s",
                     "p50_ms", "p99_ms", "pre/s", "stl/s", "slc/s"},
                    /*precision=*/1);
  for (const ShardView& view : views) {
    if (!view.ok) {
      table.add_row({view.shard, "(down: " + view.error + ")", std::string(),
                     std::string(), std::string(), std::string(),
                     std::string(), std::string(), std::string(),
                     std::string(), std::string()});
      continue;
    }
    bool first = true;
    std::vector<PoolRow> pools = view.pools;
    if (pools.empty()) pools.push_back(PoolRow{"-", 0, 0, 0, 0, 0});
    for (const PoolRow& pool : pools) {
      // Shard-level columns print once, on the shard's first row.
      if (first) {
        table.add_row({view.shard, pool.pool,
                       static_cast<std::int64_t>(pool.depth),
                       static_cast<std::int64_t>(pool.in_flight),
                       static_cast<std::int64_t>(pool.breakers_open),
                       view.req_per_s, view.p50_ms, view.p99_ms,
                       view.preempts_per_s, view.steals_per_s,
                       view.slices_per_s});
      } else {
        table.add_row({std::string(), pool.pool,
                       static_cast<std::int64_t>(pool.depth),
                       static_cast<std::int64_t>(pool.in_flight),
                       static_cast<std::int64_t>(pool.breakers_open),
                       std::string(), std::string(), std::string(),
                       std::string(), std::string(), std::string()});
      }
      first = false;
    }
  }
  return table.to_string();
}

net::Request watch_request(const TopOptions& options) {
  net::Request req;
  req.id = 1;
  req.method = "watch";
  req.tenant = options.tenant;
  JsonValue::Members params;
  params.emplace_back("interval_ms",
                      JsonValue::make_number(options.interval_ms));
  req.params = JsonValue::make_object(std::move(params));
  return req;
}

/// One shard's collector: a watch subscription drained by its own thread,
/// latest two frame bodies kept for rate math.
struct Collector {
  std::string shard;
  std::string host;
  std::uint16_t port = 0;
  Client client;
  std::thread thread;

  std::mutex mutex;
  bool closed = false;
  bool transport_error = false;
  std::string error;
  JsonValue latest;
  JsonValue prev;
};

void collect(Collector* c, const net::Request& req) {
  std::string error;
  if (!c->client.connect(c->host, c->port, &error) ||
      !c->client.send(req, &error)) {
    const std::lock_guard<std::mutex> lock(c->mutex);
    c->closed = true;
    c->transport_error = true;
    c->error = error;
    return;
  }
  for (;;) {
    auto resp = c->client.recv(&error);
    const std::lock_guard<std::mutex> lock(c->mutex);
    if (!resp) {
      // EOF after shutdown_read() is our own teardown, not a shard failure.
      c->closed = true;
      c->transport_error = error != "connection closed";
      c->error = error;
      return;
    }
    if (!resp->streaming) {  // terminal frame: the server is stopping
      c->closed = true;
      c->error = resp->summary;
      return;
    }
    c->prev = std::move(c->latest);
    c->latest = std::move(resp->body);
  }
}

int run_once(const TopOptions& options) {
  std::vector<ShardView> views;
  for (const std::string& spec : options.shards) {
    ShardView view;
    view.shard = spec;
    std::string host;
    std::uint16_t port = 0;
    std::string error;
    Client client;
    std::optional<net::Response> resp;
    if (!parse_shard(spec, &host, &port)) {
      view.error = "unparseable shard spec";
    } else if (!client.connect(host, port, &error)) {
      view.error = error;
    } else if (resp = client.call(watch_request(options), &error); !resp) {
      // call() returns the watch verb's immediate first frame; disconnecting
      // afterwards is how a watch client unsubscribes.
      view.error = error;
    } else if (resp->status != net::Status::kOk) {
      view.error = net::to_string(resp->status) + ": " + resp->summary;
    } else {
      view = extract(spec, resp->body, JsonValue());
    }
    views.push_back(std::move(view));
  }

  if (options.json) {
    JsonValue::Members root;
    root.emplace_back("interval_ms",
                      JsonValue::make_number(options.interval_ms));
    std::vector<JsonValue> shards;
    for (const ShardView& view : views) shards.push_back(json_of_view(view));
    root.emplace_back("shards", JsonValue::make_array(std::move(shards)));
    std::printf("%s\n",
                core::json_dump(JsonValue::make_object(std::move(root)))
                    .c_str());
  } else {
    std::printf("%s", render_table(views).c_str());
  }
  return std::all_of(views.begin(), views.end(),
                     [](const ShardView& v) { return v.ok; })
             ? 0
             : 1;
}

int run_live(const TopOptions& options) {
  std::vector<std::unique_ptr<Collector>> collectors;
  const net::Request req = watch_request(options);
  for (const std::string& spec : options.shards) {
    auto c = std::make_unique<Collector>();
    c->shard = spec;
    if (!parse_shard(spec, &c->host, &c->port)) {
      c->closed = true;
      c->transport_error = true;
      c->error = "unparseable shard spec";
    } else {
      c->thread = std::thread(collect, c.get(), req);
    }
    collectors.push_back(std::move(c));
  }

  std::size_t frame = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        options.interval_ms));
    std::vector<ShardView> views;
    bool all_closed = true;
    for (const auto& c : collectors) {
      const std::lock_guard<std::mutex> lock(c->mutex);
      if (!c->closed) all_closed = false;
      if (c->latest.is_null()) {
        ShardView view;
        view.shard = c->shard;
        view.error = c->closed ? (c->error.empty() ? "closed" : c->error)
                               : "connecting";
        views.push_back(std::move(view));
      } else {
        views.push_back(extract(c->shard, c->latest, c->prev));
      }
    }
    ++frame;
    // Home + clear-to-end repaint; cheaper than full clears and flicker-free
    // on every terminal that made it past 1980.
    std::printf("\x1b[H\x1b[J%s\nshards: %zu   interval: %.0f ms   frame: %zu"
                "   (ctrl-c quits)\n",
                render_table(views).c_str(), collectors.size(),
                options.interval_ms, frame);
    std::fflush(stdout);
    if (all_closed) break;
    if (options.frames != 0 && frame >= options.frames) break;
  }

  int exit_code = 0;
  for (const auto& c : collectors) {
    c->client.shutdown_read();  // unblocks a recv() parked on the socket
    if (c->thread.joinable()) c->thread.join();
    const std::lock_guard<std::mutex> lock(c->mutex);
    if (c->transport_error) exit_code = 1;
  }
  return exit_code;
}

}  // namespace

int run_top(const TopOptions& options) {
  if (options.shards.empty()) {
    std::fprintf(stderr, "rebootctl top: no shards given\n");
    return 2;
  }
  return options.once ? run_once(options) : run_live(options);
}

}  // namespace rebooting::rebootctl
