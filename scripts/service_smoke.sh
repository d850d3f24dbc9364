#!/usr/bin/env bash
# Two-shard rebootd smoke: the CI acceptance run for the networked service.
#
# Phase 1 — throughput: two clean shards, pipelined loadgen, gated on
#   >= SMOKE_MIN_RPS successful requests/second (server-side p50/p99 are
#   printed from each shard's own latency histogram).
# Phase 2 — chaos + observability: both shards restart under a 20% transient
#   fault plan on the classical-cpu pool; shard A and the loadgen client both
#   record Chrome traces. Mid-storm (before the kill) `rebootctl top --once
#   --json` must report per-shard queue depth, req/s, and p99 for both live
#   shards. Then shard B is killed with SIGKILL. Loadgen must still exit 0:
#   every request accounted for (ok + typed rejections + transport errors ==
#   attempted, no duplicates), with the dead shard's in-flight requests
#   surfacing as transport errors, not hangs. The survivor is then shut down
#   cleanly over the wire so its trace flushes; both traces must be valid
#   JSON, and scripts/trace_merge.py must stitch them into one timeline with
#   at least one client -> shard -> client cross-process flow chain
#   (trace-merged.json).
#
# Usage: scripts/service_smoke.sh BUILD_DIR
# Env:   SMOKE_MIN_RPS (default 10000), SMOKE_PORT_A/B (default 47801/47802)
set -euo pipefail

build_dir=${1:?usage: service_smoke.sh BUILD_DIR}
script_dir=$(cd "$(dirname "$0")" && pwd)
min_rps=${SMOKE_MIN_RPS:-10000}
port_a=${SMOKE_PORT_A:-47801}
port_b=${SMOKE_PORT_B:-47802}
workdir=$(mktemp -d)

rebootd=$build_dir/apps/rebootd
rebootctl=$build_dir/apps/rebootctl
loadgen=$build_dir/apps/loadgen

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

# Starts one shard and waits for its listening line. start_shard NAME PORT
# [ENV=VAL...]; the PID lands in $shard_pid.
start_shard() {
  local name=$1 port=$2
  shift 2
  env "$@" "$rebootd" --port "$port" --cpu-workers 2 --queue-capacity 512 \
    > "$workdir/$name.log" 2>&1 &
  shard_pid=$!
  pids+=("$shard_pid")
  for _ in $(seq 1 100); do
    grep -q "listening on" "$workdir/$name.log" 2>/dev/null && return 0
    kill -0 "$shard_pid" 2>/dev/null || break
    sleep 0.1
  done
  echo "FATAL: shard $name did not come up:" >&2
  cat "$workdir/$name.log" >&2
  return 1
}

echo "=== phase 1: two-shard throughput (gate: >= $min_rps req/s) ==="
start_shard shard-a "$port_a"
pid_a=$shard_pid
start_shard shard-b "$port_b"
pid_b=$shard_pid

"$loadgen" --shards "127.0.0.1:$port_a,127.0.0.1:$port_b" \
  --threads 4 --window 32 --seconds 4 --work spin --micros 10 \
  --min-rps "$min_rps"

echo
echo "--- memoized replay: duplicate submits must hit the result cache ---"
# Same work, same params, --memo on both: the second submit must replay the
# first's JobResult from the scheduler memo cache, and `top --once --json`
# must surface the nonzero hit count through the per-cache stats block.
"$rebootctl" --port "$port_a" submit spin --micros 50 --memo > /dev/null
"$rebootctl" --port "$port_a" submit spin --micros 50 --memo > /dev/null
"$rebootctl" top --shards "127.0.0.1:$port_a" --once --json \
  > "$workdir/top-memo.json"
python3 - "$workdir/top-memo.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
shard = doc["shards"][0]
assert shard["ok"], shard
caches = shard["cache"]
hits = sum(c["hits"] for c in caches.values())
assert hits > 0, caches
print("memo replay OK: %d cache hit(s) across %s" % (hits, sorted(caches)))
EOF

"$rebootctl" --port "$port_a" shutdown
"$rebootctl" --port "$port_b" shutdown
wait "$pid_a" "$pid_b"
pids=()

echo
echo "=== phase 2: 20% fault storm + mid-run SIGKILL of shard B ==="
cat > "$workdir/faults.json" <<EOF
{
  "seed": 20260808,
  "kinds": {
    "classical-cpu": { "transient_probability": 0.2 }
  }
}
EOF

start_shard storm-a "$port_a" \
  REBOOTING_FAULTS="$workdir/faults.json" REBOOTING_TRACE=trace-service.json
pid_a=$shard_pid
start_shard storm-b "$port_b" REBOOTING_FAULTS="$workdir/faults.json"
pid_b=$shard_pid

# Take a first registry sample on each shard: the first frame of `top`'s
# subscription below rates against the shard's previous sample, so its rates
# span the load window rather than starting mid-storm.
"$rebootctl" --port "$port_a" metrics > /dev/null
"$rebootctl" --port "$port_b" metrics > /dev/null

# The storm run is gated on accounting only (exit 1 = lost/duplicated
# response, exit 2 = nothing succeeded at all); throughput was phase 1's job.
# Tracing the client closes the cross-process "net.request" flow chains that
# the traced shard A continues server-side.
REBOOTING_TRACE=trace-loadgen.json \
  "$loadgen" --shards "127.0.0.1:$port_a,127.0.0.1:$port_b" \
  --threads 4 --window 16 --seconds 6 --work spin --micros 20 &
loadgen_pid=$!
pids+=("$loadgen_pid")

sleep 3
echo "--- top --once --json against the live fleet ---"
"$rebootctl" top --shards "127.0.0.1:$port_a,127.0.0.1:$port_b" \
  --once --json > "$workdir/top.json"
python3 - "$workdir/top.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
shards = doc["shards"]
assert len(shards) == 2, shards
for s in shards:
    assert s["ok"], s
    for key in ("queue_depth", "req_per_s", "p50_ms", "p99_ms"):
        assert isinstance(s[key], (int, float)), (s["shard"], key)
print("top --once --json OK: " + ", ".join(
    "%s req/s=%.0f p99=%.3fms" % (s["shard"], s["req_per_s"], s["p99_ms"])
    for s in shards))
EOF

echo "--- killing shard B (pid $pid_b) mid-storm ---"
kill -9 "$pid_b"

wait "$loadgen_pid"
pids=("$pid_a")

# Clean wire shutdown of the survivor so its trace recorder flushes.
"$rebootctl" --port "$port_a" shutdown
wait "$pid_a"
pids=()

python3 -m json.tool trace-service.json > /dev/null
events=$(python3 -c \
  "import json; print(len(json.load(open('trace-service.json'))['traceEvents']))")
echo "survivor trace OK: $events events in trace-service.json"

python3 -m json.tool trace-loadgen.json > /dev/null
echo "client trace OK: trace-loadgen.json"

# Stitch the client and surviving-shard timelines; the merge must contain at
# least one request flow that spans both processes (client begin -> shard
# steps -> client end).
python3 "$script_dir/trace_merge.py" --out trace-merged.json \
  --require-cross-flow 1 \
  client=trace-loadgen.json shard-a=trace-service.json
echo
echo "service smoke: PASS"
