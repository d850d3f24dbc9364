#!/usr/bin/env python3
"""Builds the repository and runs one perfbench workload.

    python3 perfbench/run.py --workload echo_wire --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; everything else goes to
stderr. With --trace 0 the metrics are BENCHMARK.json's end_to_end list,
measured with tracing off. With --trace 1 they are its per_layer list: one
untraced pass (which also runs the layer probes) and one traced pass, where
REBOOTING_TRACE is set on the driver and on its rebootd child and the two
traces are merged with scripts/trace_merge.py.

--self-test runs every workload briefly with one deliberately wrong expected
output and checks that each run reports correct=false, then once more
without it and checks correct=true.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("echo_wire", "sat_service", "engine_batch")
# Headline end-to-end metric of each workload, compared traced vs untraced
# for telemetry.trace_overhead_frac.
HEADLINE = {"echo_wire": "lat_p50_ms", "sat_service": "lat_p50_ms",
            "engine_batch": "batch_s"}
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (Release) and builds the driver and rebootd; returns the
    driver path. Output goes to stderr; a failure raises."""
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    build_type = ""
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        raise RuntimeError(f"refusing a {build_type or 'default'} build; "
                           "perfbench measures Release builds only")
    return out / "perfbench_driver"


def run_context(driver_ctx):
    """nproc, build type and compiler from the driver; the git sha when the
    checkout has one; a digest of the sources either way."""
    ctx = dict(driver_ctx)
    ctx["git_sha"] = "unavailable"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ctx["git_sha"] = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            ctx["git_sha"] = ref
    digest = hashlib.sha256()
    for top in ("src", "apps", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ctx["source_sha256"] = digest.hexdigest()
    return ctx


def run_driver(driver, workload, seed, seconds, extra=(), env_extra=None):
    env = dict(os.environ)
    env.pop("REBOOTING_TRACE", None)
    env.update(env_extra or {})
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=env, timeout=DRIVER_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"driver exited with {proc.returncode} on {workload}")
    return json.loads(lines[-1])


def load_events(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def flow_budget(merged):
    """Share of client-observed latency that the server's hops do not cover.

    For every net.request chain that survived the trace rings whole — the
    client's flow begin (pid 1), at least one server step (pid 2), the
    client's flow end — the server covers the span from its first to its
    last step. Each span is taken within one process, so no cross-process
    clock alignment enters the number."""
    chains = {}
    for ev in merged["traceEvents"]:
        if ev.get("name") != "net.request" or ev.get("ph") not in ("s", "t", "f"):
            continue
        c = chains.setdefault(ev["id"], {"s": None, "f": None, "t": []})
        if ev["pid"] == 1 and ev["ph"] == "s":
            c["s"] = ev["ts"]
        elif ev["pid"] == 1 and ev["ph"] == "f":
            c["f"] = ev["ts"]
        elif ev["pid"] == 2:
            c["t"].append(ev["ts"])
    client = server = 0.0
    complete = 0
    for c in chains.values():
        if c["s"] is None or c["f"] is None or not c["t"] or c["f"] <= c["s"]:
            continue
        client += c["f"] - c["s"]
        server += max(c["t"]) - min(c["t"])
        complete += 1
    log(f"budget: {complete} complete net.request chain(s) of {len(chains)}")
    return 1.0 - server / client if client > 0 else 0.0


def traced_pass(driver, workload, seed, seconds):
    """One run with REBOOTING_TRACE on the driver and its rebootd child.
    Returns (driver result, unaccounted share of a service request's
    latency or None, dropped events)."""
    trace_dir = build_dir() / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    client = trace_dir / f"{workload}-{seed}.bench.json"
    server = Path(str(client) + ".rebootd.json")
    merged_path = trace_dir / f"{workload}-{seed}.merged.json"
    for p in (client, server, merged_path):
        if p.exists():
            p.unlink()
    result = run_driver(driver, workload, seed, seconds,
                        env_extra={"REBOOTING_TRACE": str(client)})
    if workload == "engine_batch":
        # No wire hops: the driver times its engine calls from outside.
        return result, None, load_events(client)["otherData"]["dropped_events"]
    subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_merge.py"),
                    "--out", str(merged_path), "--require-cross-flow", "1",
                    f"bench={client}", f"rebootd={server}"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    merged = load_events(merged_path)
    return result, flow_budget(merged), merged["otherData"]["dropped_events"]


def metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def measure(driver, workload, seed, seconds, trace):
    end_to_end, per_layer = metric_lists()
    if not trace:
        res = run_driver(driver, workload, seed, seconds)
        wanted, raw = end_to_end, res["metrics"]
        correct, attempted, failed = res["correct"], res["attempted"], res["failed"]
        failures, ctx = res["check_failures"], res["context"]
    else:
        # Two passes of half the run each, so a traced run takes about as
        # long as an untraced one.
        half = max(1, seconds // 2)
        base = run_driver(driver, workload, seed, half, extra=["--layers"])
        traced, unaccounted, dropped = traced_pass(driver, workload, seed, half)
        head = HEADLINE[workload]
        untraced_head = base["metrics"][head]["value"]
        raw = dict(base["metrics"])
        raw["telemetry.trace_overhead_frac"] = {
            "value": traced["metrics"][head]["value"] / untraced_head - 1.0
            if untraced_head else 0.0, "unit": "frac"}
        raw["telemetry.dropped_events"] = {"value": dropped, "unit": "count"}
        if unaccounted is not None:
            raw["budget.unaccounted_frac"] = {"value": unaccounted, "unit": "frac"}
        wanted = per_layer
        correct = base["correct"] and traced["correct"]
        attempted = base["attempted"] + traced["attempted"]
        failed = base["failed"] + traced["failed"]
        failures = base["check_failures"] + traced["check_failures"]
        ctx = base["context"]

    metrics = {}
    not_exercised = []
    for m in wanted:
        name = m["name"]
        if name in raw:
            metrics[name] = {"value": raw[name]["value"], "unit": m["unit"]}
        elif trace:
            # A layer this workload does not run (e.g. the quantum layers on
            # echo_wire) reads 0.
            metrics[name] = {"value": 0, "unit": m["unit"]}
            not_exercised.append(name)
        else:
            raise RuntimeError(f"driver did not report end-to-end metric {name}")
    if not_exercised:
        log(f"{workload}: layers not exercised (reported as 0): "
            + ", ".join(not_exercised))
    for f in failures:
        log(f"CHECK FAILED: {f}")

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "context": run_context(ctx),
              "correct": correct, "check_failures": failures,
              "all_metrics": raw}
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    log("context " + json.dumps(record["context"]))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def self_test(driver):
    ok = True
    for workload in WORKLOADS:
        for wrong in (True, False):
            res = run_driver(driver, workload, 7, 2,
                             extra=["--inject-wrong"] if wrong else [])
            expected = not wrong
            status = "ok" if res["correct"] == expected else "FAIL"
            ok = ok and status == "ok"
            log(f"self-test {workload} wrong_expectation={wrong}: "
                f"correct={res['correct']} ({status})")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    try:
        driver = build()
        if args.self_test:
            return 0 if self_test(driver) else 1
        started = time.monotonic()
        result = measure(driver, args.workload, args.seed, args.seconds,
                         bool(args.trace))
        log(f"{args.workload} seed {args.seed}: {time.monotonic() - started:.1f} s")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"error: {err}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
