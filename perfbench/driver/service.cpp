// The two service workloads: a fresh rebootd child per run, driven through
// rebootctl::Client from this one process.
//
//   echo_wire    `echo` submits with distinct params. Engines do no work, so
//                framing, JSON, rebootd's reader/pump threads, the scheduler
//                hand-off and the server's always-on telemetry are the whole
//                cost. Runnable by name, but not in BENCHMARK.json: its p99
//                follows the host's scheduling hiccups (perfbench/README.md).
//   sat_service  `sat` submits (50 vars / 200 clauses): 60% fresh instances
//                (dmm.solve cache misses that insert), 20% repeats of a small
//                seed pool without memo (dmm.solve cache hits on a worker),
//                20% pool repeats with memo (scheduler memo hits or riders).
//
// Each run: set up several rebootd children (setup_s is the median spawn ->
// first ping reply), then kCycles cycles of an open-loop segment at a fixed
// rate (latency timed from each request's due send time) and a closed-loop
// segment of a fixed request count over two pipelined connections.
// Server-side layer numbers come from `metrics` verb snapshots taken between
// segments. Every request is distinct under rebootd's coalescing key, so
// `net.coalesced` must stay 0.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/json.h"
#include "core/random.h"
#include "memcomputing/canonical.h"
#include "memcomputing/cnf.h"
#include "memcomputing/dmm.h"
#include "net/protocol.h"
#include "rebootctl/client.h"
#include "telemetry/trace.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace rebooting;

constexpr const char* kHost = "127.0.0.1";
/// rebootd setups per run; the median is setup_s.
constexpr int kSetups = 21;
/// A run alternates kCycles open-loop and closed-loop segments, so each
/// phase samples the whole run: the host's load on its shared cores drifts
/// over tens of seconds, and one contiguous closed-loop phase measured
/// whichever stretch it fell on. The open-loop segments take kOpenShare of
/// --seconds; the closed-loop segments are sized to take about kClosedShare
/// at the rate the parent commit reached.
constexpr std::size_t kCycles = 5;
constexpr double kOpenShare = 0.5;
constexpr double kClosedShare = 0.42;
constexpr std::size_t kClosedConnections = 2;
/// Three workers: with two, the open loop's p99 hinges on whether two of the
/// rare 20000-step solves happen to overlap, which varies run to run.
constexpr int kCpuWorkers = 3;

struct ServiceSpec {
  double open_rate;            ///< offered load of the open-loop phase [req/s]
  double closed_expected_rps;  ///< sizes the closed-loop request count only
  std::size_t closed_window;   ///< pipelined requests per connection

  /// Requests of one open-loop segment.
  std::uint64_t open_count(double seconds) const {
    return whole_blocks(open_rate * seconds * kOpenShare / kCycles);
  }
  /// Requests of one closed-loop segment.
  std::uint64_t closed_count(double seconds) const {
    return whole_blocks(closed_expected_rps * seconds * kClosedShare / kCycles);
  }
  /// Segments hold whole blocks of kBlock requests, so each segment of the
  /// sat mix gets the same instances whatever the seed.
  static constexpr std::uint64_t kBlock = 10;
  static std::uint64_t whole_blocks(double requests) {
    return kBlock * std::max<std::uint64_t>(1, static_cast<std::uint64_t>(requests / kBlock));
  }
  std::uint64_t total_count(double seconds) const {
    return kCycles * (open_count(seconds) + closed_count(seconds));
  }
};

// Offered rates are constants of the workload, never derived from a run.
constexpr ServiceSpec kEchoSpec{5000.0, 40000.0, 32};
constexpr ServiceSpec kSatSpec{20.0, 220.0, 4};

// ---------------------------------------------------------------- rebootd --

/// One rebootd child process. The destructor kills and reaps a child that
/// was not shut down cleanly, so no exit path leaves one behind.
class Rebootd {
 public:
  Rebootd() = default;
  ~Rebootd() { kill_now(); }
  Rebootd(const Rebootd&) = delete;
  Rebootd& operator=(const Rebootd&) = delete;

  /// Spawns `path` on an ephemeral port and waits for its listening line.
  void spawn(const std::string& path, const std::string& trace_path) {
    int fds[2];
    if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    out_fd_ = fds[0];

    // The child's trace is set explicitly: never inherit this process's
    // REBOOTING_TRACE, or two processes would write one file.
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e)
      if (std::strncmp(*e, "REBOOTING_TRACE=", 16) != 0) env.emplace_back(*e);
    if (!trace_path.empty()) env.push_back("REBOOTING_TRACE=" + trace_path);
    std::vector<char*> envp;
    for (auto& s : env) envp.push_back(s.data());
    envp.push_back(nullptr);

    std::vector<std::string> args = {path,     "--host", kHost, "--port", "0",
                                     "--cpu-workers", std::to_string(kCpuWorkers)};
    std::vector<char*> argv;
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, path.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + path + ": " +
                               std::strerror(rc));
    }
    set_watched_child(pid_);

    // "rebootd listening on HOST:PORT"
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (line.find('\n') == std::string::npos) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      pollfd pfd{out_fd_, POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0)
        throw std::runtime_error("rebootd did not report its port");
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("rebootd exited during start-up");
      line.append(buf, static_cast<std::size_t>(n));
    }
    const auto colon = line.rfind(':', line.find('\n'));
    if (line.rfind("rebootd listening on ", 0) != 0 ||
        colon == std::string::npos)
      throw std::runtime_error("unexpected rebootd banner: " + line);
    port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));
  }

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Stops the child through the `shutdown` verb and reaps it. The read end
  /// of its stdout stays open until it has exited, so its last line cannot
  /// raise SIGPIPE.
  void shutdown() {
    rebootctl::Client client;
    std::string error;
    if (!client.connect(kHost, port_, &error))
      throw std::runtime_error("shutdown connect: " + error);
    net::Request req;
    req.id = 1;
    req.method = "shutdown";
    const auto resp = client.call(req, &error);
    if (!resp || resp->status != net::Status::kOk)
      throw std::runtime_error("shutdown verb failed: " + error);
    client.close();
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    int status = 0;
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0) throw std::runtime_error("waitpid failed");
      if (Clock::now() > deadline)
        throw std::runtime_error("rebootd did not exit after shutdown");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    set_watched_child(0);
    pid_ = -1;
    ::close(out_fd_);
    out_fd_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
      throw std::runtime_error("rebootd exited abnormally");
  }

 private:
  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      set_watched_child(0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

rebootctl::Client connect_or_throw(std::uint16_t port) {
  rebootctl::Client client;
  std::string error;
  if (!client.connect(kHost, port, &error))
    throw std::runtime_error("connect: " + error);
  return client;
}

bool ping(rebootctl::Client& client) {
  net::Request req;
  req.id = 1;
  req.method = "ping";
  const auto resp = client.call(req);
  return resp && resp->status == net::Status::kOk && resp->summary == "pong";
}

// ------------------------------------------------------- server snapshots --

/// The parts of one `metrics` verb body the benchmark differences.
struct Snapshot {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> hist;  ///< (count, sum)
  double memo_hits = 0.0;
  double memo_riders = 0.0;
  std::map<std::string, std::map<std::string, double>> caches;
};

double number_at(const core::JsonValue& obj, const std::string& key) {
  if (!obj.is_object() || !obj.contains(key)) return 0.0;
  const auto& v = obj.at(key);
  return v.type() == core::JsonValue::Type::kNumber ? v.number() : 0.0;
}

Snapshot snapshot(rebootctl::Client& control) {
  net::Request req;
  req.id = 2;
  req.method = "metrics";
  std::string error;
  const auto resp = control.call(req, &error);
  if (!resp || resp->status != net::Status::kOk || !resp->body.is_object())
    throw std::runtime_error("metrics verb failed: " + error);
  const core::JsonValue& body = resp->body;
  Snapshot s;
  if (body.contains("counters"))
    for (const auto& [name, v] : body.at("counters").object())
      if (v.type() == core::JsonValue::Type::kNumber) s.counters[name] = v.number();
  if (body.contains("histograms"))
    for (const auto& [name, h] : body.at("histograms").object()) {
      const double count = number_at(h, "count");
      s.hist[name] = {count, count * number_at(h, "mean")};
    }
  if (body.contains("sched")) {
    s.memo_hits = number_at(body.at("sched"), "memo_hits");
    s.memo_riders = number_at(body.at("sched"), "memo_riders");
  }
  if (body.contains("cache"))
    for (const auto& [name, c] : body.at("cache").object())
      for (const auto& [field, v] : c.object())
        if (v.type() == core::JsonValue::Type::kNumber)
          s.caches[name][field] = v.number();
  return s;
}

double counter_delta(const Snapshot& a, const Snapshot& b,
                     const std::string& name) {
  const auto get = [&](const Snapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? 0.0 : it->second;
  };
  return get(b) - get(a);
}

/// (count, sum) of a server histogram over the interval between two
/// snapshots, added to `acc`.
void add_hist_delta(const Snapshot& a, const Snapshot& b, const std::string& name,
                    std::pair<double, double>& acc) {
  const auto get = [&](const Snapshot& s) {
    const auto it = s.hist.find(name);
    return it == s.hist.end() ? std::pair<double, double>{0.0, 0.0}
                              : it->second;
  };
  acc.first += get(b).first - get(a).first;
  acc.second += get(b).second - get(a).second;
}

double hist_mean(const std::pair<double, double>& count_sum) {
  return count_sum.first > 0.0 ? count_sum.second / count_sum.first : 0.0;
}

double cache_delta(const Snapshot& a, const Snapshot& b,
                   const std::string& cache, const std::string& field) {
  const auto get = [&](const Snapshot& s) {
    const auto it = s.caches.find(cache);
    if (it == s.caches.end()) return 0.0;
    const auto f = it->second.find(field);
    return f == it->second.end() ? 0.0 : f->second;
  };
  return get(b) - get(a);
}

// --------------------------------------------------------------- traffic --

/// What one response taught the workload; merged across threads after join.
struct Tally {
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  ///< overloaded / quota_exceeded
  std::uint64_t other_status = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t bad_ids = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t wrong_payload = 0;
  std::uint64_t sat_outcomes = 0;
  std::uint64_t sat_satisfied = 0;
  std::uint64_t memo_submits = 0;
  double fresh_steps = 0.0;      ///< Σ work.sat_steps over fresh instances
  double fresh_wall_s = 0.0;     ///< Σ wall_seconds over fresh instances
  std::vector<std::pair<std::uint64_t, bool>> fresh_outcomes;  ///< (index, sat)

  void merge(const Tally& o) {
    ok += o.ok;
    rejected += o.rejected;
    other_status += o.other_status;
    transport_errors += o.transport_errors;
    duplicates += o.duplicates;
    bad_ids += o.bad_ids;
    coalesced += o.coalesced;
    wrong_payload += o.wrong_payload;
    sat_outcomes += o.sat_outcomes;
    sat_satisfied += o.sat_satisfied;
    memo_submits += o.memo_submits;
    fresh_steps += o.fresh_steps;
    fresh_wall_s += o.fresh_wall_s;
    fresh_outcomes.insert(fresh_outcomes.end(), o.fresh_outcomes.begin(),
                          o.fresh_outcomes.end());
  }
};

/// A service workload: request `index` is a pure function of (seed, index),
/// and `verify` checks an ok response against what was sent.
class Traffic {
 public:
  virtual ~Traffic() = default;
  virtual net::Request make(std::uint64_t index) const = 0;
  virtual void verify(std::uint64_t index, const net::Response& resp,
                      Tally& tally) const = 0;
};

class EchoTraffic final : public Traffic {
 public:
  EchoTraffic(std::uint64_t seed, bool wrong) : seed_(seed), wrong_(wrong) {}

  core::JsonValue params(std::uint64_t index) const {
    const std::uint64_t h = mix64(seed_ ^ mix64(index));
    char tag[17];
    std::snprintf(tag, sizeof tag, "%016llx",
                  static_cast<unsigned long long>(h));
    core::JsonValue::Members m;
    m.emplace_back("i", core::JsonValue::make_number(static_cast<double>(index)));
    m.emplace_back("k", core::JsonValue::make_number(
                            static_cast<double>(h & 0xffffffffu)));
    m.emplace_back("tag", core::JsonValue::make_string(tag));
    return core::JsonValue::make_object(std::move(m));
  }

  net::Request make(std::uint64_t index) const override {
    net::Request req;
    req.id = index + 1;
    req.method = "submit";
    req.tenant = "bench";
    req.work = "echo";
    req.params = params(index);
    return req;
  }

  void verify(std::uint64_t index, const net::Response& resp,
              Tally& tally) const override {
    // The self-test expects the params of the neighbouring request.
    const std::uint64_t expected_index = wrong_ && index == 0 ? 1 : index;
    if (resp.summary != "echo " + core::json_dump(params(expected_index)))
      ++tally.wrong_payload;
  }

 private:
  std::uint64_t seed_;
  bool wrong_;
};

constexpr std::size_t kSatVars = 50;
constexpr std::size_t kSatClauses = 200;

struct SatSolve {
  memcomputing::Cnf cnf;
  memcomputing::DmmResult result;
};

/// The instance and uncached solve of rebootd's `sat` workload for `seed`.
SatSolve solve_like_server(std::uint64_t seed) {
  core::Rng rng(seed);
  SatSolve s{memcomputing::random_ksat(rng, kSatVars, kSatClauses, 3), {}};
  memcomputing::DmmOptions options;
  options.max_steps = 20'000;
  s.result = memcomputing::DmmSolver(s.cnf, options).solve(rng);
  return s;
}

class SatTraffic final : public Traffic {
 public:
  static constexpr std::size_t kPool = 8;
  static constexpr std::size_t kPoolMaxSteps = 2'000;
  static constexpr std::uint64_t kFreshBase = 1'000;
  static constexpr std::uint64_t kPoolBase = 1'000'000'000;

  enum class Kind { kFresh, kPool, kMemo };

  /// The instances form one fixed suite: the j-th fresh request of every run
  /// solves instance kFreshBase + j, and the repeat pool is the first kPool
  /// instances from kPoolBase on that solve within kPoolMaxSteps. The seed
  /// draws the order of kinds and which pool member each repeat names. With
  /// heavy-tailed solve times, seed-drawn instances made a run's latency
  /// depend on its seed; an unsolved pool member re-runs a full warm
  /// restart on every repeat, and repeats that arrive during a long first
  /// solve run it again.
  SatTraffic(std::uint64_t seed, bool wrong, std::uint64_t requests)
      : seed_(seed), wrong_(wrong) {
    for (std::uint64_t s = kPoolBase; pool_.size() < kPool && s < kPoolBase + 256; ++s) {
      const memcomputing::DmmResult r = solve_like_server(s).result;
      if (r.satisfied && r.steps <= kPoolMaxSteps) pool_.push_back(s);
    }
    if (pool_.size() < kPool) throw std::runtime_error("no solvable sat pool");
    // Every block of 10 consecutive requests holds exactly 6 fresh, 2 pool
    // and 2 memo requests in a seeded order, so the mix itself does not
    // vary between runs.
    core::Rng rng(mix64(seed));
    std::vector<Kind> block = {Kind::kFresh, Kind::kFresh, Kind::kFresh,
                               Kind::kFresh, Kind::kFresh, Kind::kFresh,
                               Kind::kPool,  Kind::kPool,  Kind::kMemo,
                               Kind::kMemo};
    std::uint64_t fresh = 0;
    for (std::uint64_t i = 0; i < requests; ++i) {
      if (i % block.size() == 0) rng.shuffle(block);
      const Kind k = block[i % block.size()];
      kinds_.push_back(k);
      seeds_.push_back(k == Kind::kFresh
                           ? kFreshBase + fresh++
                           : pool_[(mix64(seed_ + 7 * i) >> 8) % kPool]);
    }
  }

  Kind kind(std::uint64_t index) const { return kinds_.at(index); }

  /// The instance seed the server derives the CNF from.
  std::uint64_t instance_seed(std::uint64_t index) const { return seeds_.at(index); }

  net::Request make(std::uint64_t index) const override {
    net::Request req;
    req.id = index + 1;
    req.method = "submit";
    req.tenant = "bench";
    req.work = "sat";
    core::JsonValue::Members m;
    m.emplace_back("vars", core::JsonValue::make_number(kSatVars));
    m.emplace_back("clauses", core::JsonValue::make_number(kSatClauses));
    m.emplace_back("seed", core::JsonValue::make_number(
                               static_cast<double>(instance_seed(index))));
    const Kind k = kind(index);
    // Pool repeats without memo carry a tag the workload ignores: the CNF,
    // and so the dmm.solve key, is unchanged, but the request is distinct.
    if (k == Kind::kPool)
      m.emplace_back("tag", core::JsonValue::make_number(static_cast<double>(index)));
    req.params = core::JsonValue::make_object(std::move(m));
    if (k == Kind::kMemo) {
      // Memo keys on (kind, work, params) only; a distinct far deadline keeps
      // the request distinct under the coalescing key, which includes it.
      req.memo = true;
      req.deadline_ms = 600000.0 + 0.001 * static_cast<double>(index);
    }
    return req;
  }

  void verify(std::uint64_t index, const net::Response& resp,
              Tally& tally) const override {
    const auto sat = resp.metrics.find("work.sat_satisfied");
    const auto steps = resp.metrics.find("work.sat_steps");
    if (sat == resp.metrics.end() || steps == resp.metrics.end() ||
        resp.summary.rfind("sat: ", 0) != 0 ||
        (sat->second != 0.0 && sat->second != 1.0) || steps->second < 0.0) {
      ++tally.wrong_payload;
      return;
    }
    const bool satisfied = sat->second == 1.0;
    ++tally.sat_outcomes;
    if (satisfied) ++tally.sat_satisfied;
    if (kind(index) == Kind::kMemo) ++tally.memo_submits;
    if (kind(index) == Kind::kFresh) {
      tally.fresh_steps += steps->second;
      tally.fresh_wall_s += resp.wall_seconds;
      tally.fresh_outcomes.emplace_back(index, satisfied);
    }
  }

  /// Self-test: the in-process re-solve expects the opposite outcome.
  bool wrong() const { return wrong_; }

 private:
  std::uint64_t seed_;
  bool wrong_;
  std::vector<std::uint64_t> pool_;
  std::vector<Kind> kinds_;
  std::vector<std::uint64_t> seeds_;
};

/// Sorts one response into the tally. Returns false when the id is unknown
/// or repeated (then the response is not counted as an outcome).
bool account(const Traffic& traffic, const net::Response& resp,
             std::uint64_t first, std::uint64_t count,
             std::vector<std::uint8_t>& seen, Tally& tally) {
  if (resp.id <= first || resp.id > first + count) {
    ++tally.bad_ids;
    return false;
  }
  const std::uint64_t index = resp.id - 1;
  if (seen[index - first]++) {
    ++tally.duplicates;
    return false;
  }
  if (resp.coalesced) ++tally.coalesced;
  switch (resp.status) {
    case net::Status::kOk:
      ++tally.ok;
      traffic.verify(index, resp, tally);
      break;
    case net::Status::kOverloaded:
    case net::Status::kQuotaExceeded:
      ++tally.rejected;
      break;
    default:
      ++tally.other_status;
      break;
  }
  return true;
}

struct OpenLoop {
  Tally tally;
  std::uint64_t attempted = 0;
  std::vector<double> latency_ms;    ///< from the due time; inf if not ok
  std::vector<double> from_send_ms;  ///< ok only, from the actual write
  std::vector<double> service_ms;    ///< ok only, Response::wall_seconds
  std::vector<double> send_us;       ///< duration of Client::send
  std::vector<double> lag_ms;        ///< how late each send started

  /// Appends a later segment; latency_ms stays in send order.
  void merge(const OpenLoop& o) {
    tally.merge(o.tally);
    attempted += o.attempted;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(latency_ms, o.latency_ms);
    append(from_send_ms, o.from_send_ms);
    append(service_ms, o.service_ms);
    append(send_us, o.send_us);
    append(lag_ms, o.lag_ms);
  }
};

/// Fixed-rate open loop on one connection: a sender thread writes request i
/// at t0 + i / rate whatever the replies do; a receiver thread reads. The
/// receiver only reads the socket and the sender only writes it.
OpenLoop open_loop(const Traffic& traffic, std::uint16_t port, double rate,
                   std::uint64_t count, std::uint64_t first) {
  OpenLoop out;
  out.latency_ms.assign(count, std::numeric_limits<double>::infinity());
  out.send_us.reserve(count);
  out.lag_ms.reserve(count);
  std::vector<std::atomic<std::int64_t>> sent_ns(count);
  std::vector<std::uint8_t> seen(count, 0);
  rebootctl::Client client = connect_or_throw(port);

  // `sent` counts a request before its write, so a reply can never be ahead
  // of it; the receiver blocks in recv() only while a request is
  // outstanding, and otherwise waits here for the sender's next request or
  // its end.
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t sent = 0;     // guarded by mutex
  bool sender_done = false;   // guarded by mutex
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::uint64_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) / rate));
  };

  std::thread sender([&] {
    telemetry::TraceRecorder::instance().set_thread_name("bench sender");
    for (std::uint64_t i = 0; i < count; ++i) {
      const Clock::time_point when = due(i);
      std::this_thread::sleep_until(when);  // 1 ns timer slack, see main.cpp
      const net::Request req = traffic.make(first + i);
      const Clock::time_point start = Clock::now();
      // Stored before the write: the reply can arrive before send() returns.
      sent_ns[i].store((start - t0).count(), std::memory_order_release);
      {
        std::lock_guard lock(mutex);
        sent = i + 1;
      }
      cv.notify_one();
      bool ok = false;
      {
        TELEM_TRACE_SCOPE("bench.client_send");
        ok = client.send(req);
      }
      const Clock::time_point end = Clock::now();
      if (!ok) {
        std::lock_guard lock(mutex);
        sent = i;  // never written; the dead connection ends the receiver
        break;
      }
      out.send_us.push_back(std::chrono::duration<double, std::micro>(end - start).count());
      out.lag_ms.push_back(std::chrono::duration<double, std::milli>(start - when).count());
    }
    {
      std::lock_guard lock(mutex);
      sender_done = true;
    }
    cv.notify_one();
  });

  std::uint64_t received = 0;
  std::uint64_t transport_errors = 0;
  for (;;) {
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return received < sent || sender_done; });
      if (received >= sent) break;  // sender done, every reply in
    }
    std::optional<net::Response> resp;
    {
      TELEM_TRACE_SCOPE("bench.client_recv");
      resp = client.recv();
    }
    const Clock::time_point now = Clock::now();
    if (!resp) {
      transport_errors = 1;
      break;
    }
    if (!account(traffic, *resp, first, count, seen, out.tally)) continue;
    ++received;
    const std::uint64_t i = resp->id - 1 - first;
    if (resp->status == net::Status::kOk) {
      out.latency_ms[i] = std::chrono::duration<double, std::milli>(now - due(i)).count();
      const auto sent_at = t0 + Clock::duration(sent_ns[i].load(std::memory_order_acquire));
      out.from_send_ms.push_back(std::chrono::duration<double, std::milli>(now - sent_at).count());
      out.service_ms.push_back(resp->wall_seconds * 1e3);
    }
  }
  if (transport_errors) client.shutdown_read();
  sender.join();
  out.attempted = sent;
  out.tally.transport_errors = out.attempted - received;
  return out;
}

struct ClosedLoop {
  Tally tally;
  std::uint64_t attempted = 0;
  double wall_s = 0.0;
};

/// Closed loop: kClosedConnections connections, each keeping `window`
/// requests in flight until its share of `count` requests is answered.
ClosedLoop closed_loop(const Traffic& traffic, std::uint16_t port,
                       std::size_t window, std::uint64_t count,
                       std::uint64_t first) {
  std::vector<Tally> tallies(kClosedConnections);
  std::vector<std::uint64_t> attempted(kClosedConnections, 0);
  std::vector<std::string> errors(kClosedConnections);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClosedConnections; ++c) {
    threads.emplace_back([&, c] {
      telemetry::TraceRecorder::instance().set_thread_name(
          "bench closed " + std::to_string(c));
      Tally& tally = tallies[c];
      try {
        rebootctl::Client client = connect_or_throw(port);
        // Connection c owns indices c, c + C, c + 2C, ...
        std::vector<std::uint8_t> seen(count, 0);
        std::uint64_t next = c;
        std::uint64_t in_flight = 0;
        const auto send_next = [&] {
          const net::Request req = traffic.make(first + next);
          TELEM_TRACE_SCOPE("bench.client_send");
          if (!client.send(req)) return false;
          ++attempted[c];
          ++in_flight;
          next += kClosedConnections;
          return true;
        };
        while (in_flight < window && next < count)
          if (!send_next()) break;
        while (in_flight > 0) {
          std::optional<net::Response> resp;
          {
            TELEM_TRACE_SCOPE("bench.client_recv");
            resp = client.recv();
          }
          if (!resp) break;
          if (!account(traffic, *resp, first, count, seen, tally)) continue;
          if ((resp->id - 1 - first) % kClosedConnections != c) ++tally.bad_ids;
          --in_flight;
          if (next < count && !send_next()) break;
        }
        tally.transport_errors += in_flight;
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoop out;
  for (std::size_t c = 0; c < kClosedConnections; ++c) {
    if (!errors[c].empty()) throw std::runtime_error(errors[c]);
    out.tally.merge(tallies[c]);
    out.attempted += attempted[c];
  }
  out.wall_s = seconds_between(start, Clock::now());
  return out;
}

/// Re-solves a few fresh instances in-process exactly as the server's `sat`
/// workload builds them, checks each assignment the solver reports satisfied
/// against its CNF, and checks that the wire reported the same outcome.
/// Also times memcomputing::canonicalize per instance (dmm.canon_ms).
void resolve_in_process(const SatTraffic& traffic,
                        const std::vector<std::pair<std::uint64_t, bool>>& fresh,
                        bool time_canon, Result& out) {
  std::vector<double> canon_ms;
  const std::size_t n = std::min<std::size_t>(fresh.size(), 6);
  for (std::size_t k = 0; k < n; ++k) {
    const auto [index, wire_satisfied] = fresh[k * fresh.size() / n];
    const auto [cnf, result] = solve_like_server(traffic.instance_seed(index));
    if (time_canon) {
      const auto t0 = Clock::now();
      const auto canon = memcomputing::canonicalize(cnf);
      canon_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      out.check(canon.cnf.num_clauses() == cnf.num_clauses(),
                "canonical CNF lost clauses");
    }
    if (result.satisfied)
      out.check(cnf.satisfied(result.assignment),
                "DMM assignment reported satisfied violates its CNF");
    const bool expected = traffic.wrong() && k == 0 ? !wire_satisfied : wire_satisfied;
    out.check(result.satisfied == expected,
              "wire sat outcome differs from the in-process solve of instance " +
                  std::to_string(index));
  }
  out.set("dmm.canon_ms", median(canon_ms), "ms");
}

void run_service(const RunOptions& opts, const ServiceSpec& spec,
                 const Traffic& traffic, Result& out) {
  // Set-up: spawn -> first ping reply, kSetups times; every child but the
  // last is shut down again. The measured child is the traced one.
  std::vector<double> setups;
  std::unique_ptr<Rebootd> server;
  for (int s = 0; s < kSetups; ++s) {
    const bool last = s == kSetups - 1;
    server = std::make_unique<Rebootd>();
    const auto t0 = Clock::now();
    server->spawn(opts.rebootd_path, last ? opts.child_trace_path : "");
    rebootctl::Client probe = connect_or_throw(server->port());
    if (!ping(probe)) throw std::runtime_error("first ping failed");
    const double setup = seconds_between(t0, Clock::now());
    probe.close();
    if (!last || opts.child_trace_path.empty()) setups.push_back(setup);
    if (!last) server->shutdown();
  }
  out.set("setup_s", median(setups), "s");
  const auto phase = [start = Clock::now()](const char* what) {
    std::fprintf(stderr, "perfbench_driver: %s at %.1f s\n", what,
                 seconds_between(start, Clock::now()));
  };
  phase("set-up done");

  rebootctl::Client control = connect_or_throw(server->port());
  const Snapshot s0 = snapshot(control);

  const std::uint64_t open_count = spec.open_count(opts.seconds);
  const std::uint64_t closed_count = spec.closed_count(opts.seconds);
  OpenLoop open;
  Tally closed_tally;
  std::uint64_t closed_attempted = 0;
  std::vector<double> closed_wall_s;
  std::vector<double> closed_rps;
  // Server histograms over the open-loop segments only.
  std::pair<double, double> residence_s{0.0, 0.0};
  std::pair<double, double> wait_s{0.0, 0.0};
  std::uint64_t next = 0;  // index of the next request
  for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
    const Snapshot a = cycle == 0 ? s0 : snapshot(control);
    open.merge(open_loop(traffic, server->port(), spec.open_rate, open_count, next));
    next += open_count;
    const Snapshot b = snapshot(control);
    add_hist_delta(a, b, "net.request_seconds", residence_s);
    add_hist_delta(a, b, "sched.wait_seconds", wait_s);
    const ClosedLoop closed = closed_loop(traffic, server->port(), spec.closed_window,
                                          closed_count, next);
    next += closed_count;
    closed_tally.merge(closed.tally);
    closed_attempted += closed.attempted;
    closed_wall_s.push_back(closed.wall_s);
    closed_rps.push_back(closed.tally.ok / closed.wall_s);
    std::fprintf(stderr, "perfbench_driver: cycle %zu: closed loop %.1f ok/s\n", cycle,
                 closed_rps.back());
  }
  const Snapshot s2 = snapshot(control);
  phase("phases done");
  out.set("peak_rss_mb", peak_rss_mb(std::to_string(server->pid())), "MB");
  control.close();
  server->shutdown();

  Tally all = open.tally;
  all.merge(closed_tally);
  const std::uint64_t planned = next;
  const std::uint64_t attempted = open.attempted + closed_attempted;
  const std::uint64_t answered = all.ok + all.rejected + all.other_status;
  out.attempted = attempted;
  out.failed = attempted - all.ok;

  // Accounting: every planned request was written, and every written one
  // ended as exactly one response or one transport error.
  out.check(attempted == planned, "not every planned request was sent");
  out.check(attempted == answered + all.transport_errors,
            "accounting: attempted != responses + transport errors");
  out.check(all.duplicates == 0, "duplicate response ids");
  out.check(all.bad_ids == 0, "response ids that were never sent");
  out.check(all.wrong_payload == 0,
            std::to_string(all.wrong_payload) + " response(s) did not match their request");
  out.check(all.coalesced == 0 && counter_delta(s0, s2, "net.coalesced") == 0.0,
            "requests were coalesced although every request is distinct");

  // End-to-end. Latencies stay in send order, so windows are time windows.
  std::vector<double> lat = open.latency_ms;
  const double segment_ms = opts.seconds * kOpenShare / kCycles * 1e3;
  for (double& v : lat)  // a request that never succeeded missed every limit
    if (std::isinf(v)) v = segment_ms;
  out.set("lat_p50_ms", windowed_quantile(lat, 0.5), "ms");
  out.set("lat_p99_ms", windowed_quantile(lat, 0.99), "ms");
  // Each closed-loop segment is a fixed request set: batch_s is the median
  // of their wall times and peak_rps the median of their ok rates.
  out.set("peak_rps", median(closed_rps), "1/s");
  out.set("batch_s", median(closed_wall_s), "s");
  out.set("ok_frac", attempted ? static_cast<double>(all.ok) / attempted : 0.0,
          "frac");
  out.set("failed_frac",
          attempted ? static_cast<double>(out.failed) / attempted : 0.0, "frac");

  // Per layer (open-loop phase unless stated).
  const double residence_ms = hist_mean(residence_s) * 1e3;
  out.set("rebootctl.send_us", median(open.send_us), "us");
  out.set("rebootd.residence_ms", residence_ms, "ms");
  out.set("net.wire_ms", mean(open.from_send_ms) - residence_ms, "ms");
  out.set("rebootd.rejected",
          counter_delta(s0, s2, "net.rejected_overloaded") +
              counter_delta(s0, s2, "net.rejected_quota"),
          "count");
  out.set("rebootd.coalesced", counter_delta(s0, s2, "net.coalesced"), "count");
  out.set("sched.wait_ms", hist_mean(wait_s) * 1e3, "ms");
  out.set("sched.service_ms_p50", quantile(open.service_ms, 0.5), "ms");
  out.set("sched.service_ms_p99", quantile(open.service_ms, 0.99), "ms");
  out.set("loadgen.lag_ms", quantile(open.lag_ms, 0.99), "ms");
  const double memo = s2.memo_hits - s0.memo_hits + s2.memo_riders - s0.memo_riders;
  out.set("sched.memo_hit_ratio", all.memo_submits ? memo / all.memo_submits : 0.0,
          "frac");
  const double hits = cache_delta(s0, s2, "dmm.solve", "hits");
  const double misses = cache_delta(s0, s2, "dmm.solve", "misses");
  out.set("cache.dmm.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
          "frac");
  out.set("cache.dmm.inserts", cache_delta(s0, s2, "dmm.solve", "inserts"), "count");
  out.set("cache.dmm.evictions", cache_delta(s0, s2, "dmm.solve", "evictions"),
          "count");

  if (all.sat_outcomes > 0) {
    out.set("solved_frac", static_cast<double>(all.sat_satisfied) / all.sat_outcomes,
            "frac");
    out.set("dmm.steps", all.fresh_steps, "count");
    out.set("dmm.ns_per_clause_step",
            all.fresh_steps > 0
                ? all.fresh_wall_s * 1e9 / (all.fresh_steps * kSatClauses)
                : 0.0,
            "ns");
  } else {
    // No SAT work on this workload: every echo reply that came back verified
    // is a solved outcome.
    out.set("solved_frac",
            all.ok ? static_cast<double>(all.ok - all.wrong_payload) / all.ok : 0.0,
            "frac");
  }
  if (const auto* sat = dynamic_cast<const SatTraffic*>(&traffic)) {
    out.check(all.sat_outcomes == all.ok, "sat responses without an outcome");
    resolve_in_process(*sat, all.fresh_outcomes, opts.layers, out);
  }
}

}  // namespace

void run_echo_wire(const RunOptions& opts, Result& out) {
  const EchoTraffic traffic(opts.seed, opts.inject_wrong_expectation);
  run_service(opts, kEchoSpec, traffic, out);
}

void run_sat_service(const RunOptions& opts, Result& out) {
  const SatTraffic traffic(opts.seed, opts.inject_wrong_expectation,
                           kSatSpec.total_count(opts.seconds));
  run_service(opts, kSatSpec, traffic, out);
}

}  // namespace perfbench
