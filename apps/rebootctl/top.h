// `rebootctl top` — a fleet dashboard over the `watch` wire verb. One watch
// subscription per shard, one collector thread per subscription, and a
// renderer that repaints an aligned multi-shard table every interval:
// per-pool queue depth and breaker state, request rate, latency quantiles,
// and scheduler preempt/steal/slice rates.
//
// Two modes:
//
//   live (default)   ANSI repaint until the terminal interrupts us or every
//                    shard's subscription ends (server stopped). --frames N
//                    bounds the run for scripts that cannot send SIGINT.
//   --once           one frame per shard, no threads, no repaint — connect,
//                    read the watch verb's immediate first frame, disconnect.
//                    With --json the frame set prints as one JSON object
//                    (the shape service_smoke.sh asserts on), exit 0 iff
//                    every shard answered.
//
// Rates: counter rates (req/s) come from the server (body.rates.per_second:
// a first frame's since the server's previous sample, a later frame's since
// the subscription's previous frame); scheduler slice/preempt/steal rates
// are computed client-side from consecutive frames, since
// Scheduler::stats() counters live outside the metrics registry.
#pragma once

#include <string>
#include <vector>

namespace rebooting::rebootctl {

struct TopOptions {
  /// "host:port" per shard; a bare "port" means 127.0.0.1.
  std::vector<std::string> shards;
  double interval_ms = 500.0;
  bool once = false;
  bool json = false;
  /// Live mode: stop after this many repaints (0 = until the subscriptions
  /// end or the process is interrupted).
  std::size_t frames = 0;
  std::string tenant = "default";
};

/// Runs the dashboard; returns the process exit code (0 = every shard
/// reachable for the whole run).
int run_top(const TopOptions& options);

}  // namespace rebooting::rebootctl
