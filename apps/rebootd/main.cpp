// rebootd — the networked accelerator daemon. One process is one shard; a
// fleet of shards behind rebootctl's consistent-hash router is the service.
//
//   rebootd --port 4700 --cpu-workers 4 --engines
//   REBOOTING_FAULTS=plan.json REBOOTING_TRACE=shard.trace.json rebootd ...
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "memcomputing/accelerator.h"
#include "oscillator/comparator.h"
#include "quantum/compiler.h"
#include "quantum/runtime.h"
#include "rebootd/server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--cpu-workers N]\n"
               "          [--queue-capacity N] [--high-water N] [--pumps N]\n"
               "          [--retries N] [--engines]\n"
               "          [--quota-rate F --quota-burst F]\n"
               "Port 0 (default) picks an ephemeral port; the bound port is\n"
               "printed on stdout as 'rebootd listening on HOST:PORT'.\n"
               "Each worker thread is pinned to its own CPU.\n",
               argv0);
  std::exit(2);
}

double number_arg(int argc, char** argv, int& i, const char* argv0) {
  if (i + 1 >= argc) usage(argv0);
  return std::atof(argv[++i]);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rebooting;

  rebootd::ServerConfig config;
  config.pin_workers = true;  // the daemon owns its host
  bool engines = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--host")) {
      if (i + 1 >= argc) usage(argv[0]);
      config.host = argv[++i];
    } else if (!std::strcmp(arg, "--port")) {
      config.port = static_cast<std::uint16_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--cpu-workers")) {
      config.cpu_workers = static_cast<std::size_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--queue-capacity")) {
      config.queue_capacity = static_cast<std::size_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--high-water")) {
      config.admission_high_water = static_cast<std::size_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--pumps")) {
      config.pump_threads = static_cast<std::size_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--retries")) {
      config.retry_attempts = static_cast<std::size_t>(number_arg(argc, argv, i, argv[0]));
    } else if (!std::strcmp(arg, "--quota-rate")) {
      config.tenancy.default_quota.rate_per_s = number_arg(argc, argv, i, argv[0]);
    } else if (!std::strcmp(arg, "--quota-burst")) {
      config.tenancy.default_quota.burst = number_arg(argc, argv, i, argv[0]);
    } else if (!std::strcmp(arg, "--engines")) {
      engines = true;
    } else {
      usage(argv[0]);
    }
  }

  rebootd::Server server(config);
  if (engines) {
    server.add_pool(core::AcceleratorKind::kQuantum, 1,
                    quantum::QuantumAccelerator::factory(
                        {.topology = quantum::Topology::line(4)}));
    server.add_pool(core::AcceleratorKind::kOscillator, 1,
                    oscillator::OscillatorAccelerator::factory({}));
    server.add_pool(core::AcceleratorKind::kMemcomputing, 1,
                    memcomputing::MemcomputingAccelerator::factory());
  }

  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "rebootd: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::printf("rebootd listening on %s:%u\n", server.config().host.c_str(),
              server.port());
  std::fflush(stdout);

  while (!g_stop.load() && !server.shutdown_requested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server.stop();
  std::printf("rebootd stopped\n");
  return 0;
}
