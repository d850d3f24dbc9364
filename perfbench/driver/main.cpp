// perfbench_driver — runs one benchmark workload and prints one JSON line.
//
//   perfbench_driver --workload echo_wire|sat_service|engine_batch
//                    --seed N --seconds S [--layers] [--inject-wrong]
//
// The last line of stdout is {"correct", "attempted", "failed",
// "check_failures", "metrics": {name: {"value", "unit"}}, "context"}.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result. With REBOOTING_TRACE set, this process and the
// measured rebootd child each write a Chrome trace.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "core/json.h"
#include "telemetry/trace.h"

namespace perfbench {

namespace {

std::atomic<int> g_child{0};
static_assert(std::atomic<int>::is_always_lock_free);

/// A run that outlives its budget is stuck, and a terminated one must not
/// leave its rebootd behind: kill and reap the child, exit nonzero.
void on_fatal_signal(int sig) {
  const int pid = g_child.load();
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  static const char timeout[] = "perfbench_driver: run exceeded its time limit\n";
  static const char killed[] = "perfbench_driver: terminated\n";
  [[maybe_unused]] const auto n =
      sig == SIGALRM ? ::write(STDERR_FILENO, timeout, sizeof timeout - 1)
                     : ::write(STDERR_FILENO, killed, sizeof killed - 1);
  ::_exit(3);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload echo_wire|sat_service|"
               "engine_batch --seed N --seconds S [--layers] [--inject-wrong]\n");
  std::exit(2);
}

}  // namespace

void set_watched_child(int pid) { g_child.store(pid); }

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  return 0.0;
}

std::size_t cpu_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using rebooting::core::JsonValue;

  RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") opts.workload = value();
    else if (arg == "--seed") opts.seed = std::stoull(value());
    else if (arg == "--seconds") opts.seconds = std::stod(value());
    else if (arg == "--layers") opts.layers = true;
    else if (arg == "--inject-wrong") opts.inject_wrong_expectation = true;
    else usage();
  }
  if (opts.seconds <= 0.0 || opts.seconds > 120.0) usage();

  // Numbers from an unoptimized build would measure the compiler, not the
  // program.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench_driver: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  // 1 ns timer slack: the open-loop sender sleeps until each due time, and
  // the default 50 us slack would be as long as the gap between requests.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ::signal(SIGPIPE, SIG_IGN);
  for (const int sig : {SIGALRM, SIGTERM, SIGINT}) ::signal(sig, on_fatal_signal);
  ::alarm(static_cast<unsigned>(opts.seconds) + 150);

  opts.rebootd_path = PERFBENCH_REBOOTD;
  if (rebooting::telemetry::trace_enabled())
    if (const char* trace = std::getenv("REBOOTING_TRACE"))
      opts.child_trace_path = std::string(trace) + ".rebootd.json";

  Result result;
  try {
    if (opts.workload == "echo_wire") run_echo_wire(opts, result);
    else if (opts.workload == "sat_service") run_sat_service(opts, result);
    else if (opts.workload == "engine_batch") run_engine_batch(opts, result);
    else usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
  ::alarm(0);

  JsonValue::Members metrics;
  for (const auto& [name, vu] : result.metrics) {
    JsonValue::Members m;
    m.emplace_back("value", JsonValue::make_number(vu.first));
    m.emplace_back("unit", JsonValue::make_string(vu.second));
    metrics.emplace_back(name, JsonValue::make_object(std::move(m)));
  }
  std::vector<JsonValue> failures;
  for (const auto& f : result.check_failures) failures.push_back(JsonValue::make_string(f));
  JsonValue::Members context;
  context.emplace_back("nproc", JsonValue::make_number(static_cast<double>(cpu_count())));
  context.emplace_back("build_type", JsonValue::make_string(PERFBENCH_BUILD_TYPE));
  context.emplace_back("compiler", JsonValue::make_string(PERFBENCH_COMPILER));

  JsonValue::Members doc;
  doc.emplace_back("correct", JsonValue::make_bool(result.correct));
  doc.emplace_back("attempted", JsonValue::make_number(static_cast<double>(result.attempted)));
  doc.emplace_back("failed", JsonValue::make_number(static_cast<double>(result.failed)));
  doc.emplace_back("check_failures", JsonValue::make_array(std::move(failures)));
  doc.emplace_back("metrics", JsonValue::make_object(std::move(metrics)));
  doc.emplace_back("context", JsonValue::make_object(std::move(context)));
  std::cout << rebooting::core::json_dump(JsonValue::make_object(std::move(doc)))
            << std::endl;
  return 0;
}
