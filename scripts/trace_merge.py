#!/usr/bin/env python3
"""Merge per-process Chrome trace JSONs into one cross-process timeline.

Every binary that links the telemetry layer writes its own trace file
(REBOOTING_TRACE=path), each with its own pid=1 and its own steady-clock
origin. This script stitches N of those files into a single Perfetto/
chrome://tracing-loadable JSON:

  * each input file becomes one process (pid = position in argv, named by
    its label) with all its thread tracks preserved;
  * timestamps are aligned on the wall clock: every trace carries
    otherData.epoch_unix_ns — the system_clock instant of its ts 0 — so
    events shift by (epoch - min_epoch) microseconds;
  * flow events pass through untouched. They bind by (cat, id) globally, and
    the client stamps its trace_id into the submit frame (the server adopts
    it), so a "net.request" chain drawn client-side continues through the
    shard's reader -> scheduler worker (completion hook) -> reader write
    spans and back to the client's recv as one set of arrows.

Usage:
  trace_merge.py --out merged.json client=trace-client.json \\
                 shard-a=trace-a.json shard-b=trace-b.json
  trace_merge.py --out merged.json trace-*.json   # labels = file stems

--require-cross-flow N exits nonzero unless at least N flow ids have events
in more than one input file — the CI assertion that cross-process
propagation actually happened (a typo'd trace_id field would otherwise
degrade silently into N disjoint per-process chains).

Caveat: wall-clock alignment is as good as the hosts' clocks. Same-host
merges (the smoke test) are exact to clock-read jitter; cross-host merges
inherit NTP skew, which Perfetto renders but cannot correct.
"""

import argparse
import json
import os
import sys


def load_trace(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(f"{path}: not a Chrome trace JSON object")
    other = doc.get("otherData", {})
    epoch = other.get("epoch_unix_ns")
    if epoch is None:
        raise ValueError(
            f"{path}: otherData.epoch_unix_ns missing — written by an older "
            "build? re-record with a binary that stamps its trace epoch")
    return doc, int(epoch)


def main():
    parser = argparse.ArgumentParser(
        description="merge per-process Chrome traces into one timeline")
    parser.add_argument("traces", nargs="+", metavar="[LABEL=]PATH",
                        help="input trace files; LABEL names the process "
                             "row (default: file stem)")
    parser.add_argument("--out", required=True, help="merged JSON path")
    parser.add_argument("--require-cross-flow", type=int, default=0,
                        metavar="N",
                        help="fail unless >= N flow ids span multiple "
                             "input files")
    args = parser.parse_args()

    inputs = []
    for spec in args.traces:
        label, sep, path = spec.partition("=")
        if not sep:
            path = spec
            label = os.path.splitext(os.path.basename(spec))[0]
        inputs.append((label, path))

    loaded = []
    for label, path in inputs:
        try:
            doc, epoch = load_trace(path)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"trace_merge: {err}", file=sys.stderr)
            return 1
        loaded.append((label, doc, epoch))

    min_epoch = min(epoch for _, _, epoch in loaded)

    merged = []
    flow_pids = {}  # flow id -> set of pids it appears in
    dropped_events = 0
    for index, (label, doc, epoch) in enumerate(loaded):
        pid = index + 1
        shift_us = (epoch - min_epoch) / 1000.0
        merged.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        other = doc.get("otherData", {})
        dropped_events += int(other.get("dropped_events", 0))
        for ev in doc["traceEvents"]:
            if ev.get("ph") == "M" and ev.get("name") == "process_name":
                continue  # replaced by the labeled one above
            ev = dict(ev)
            ev["pid"] = pid
            if "ts" in ev:
                ev["ts"] = ev["ts"] + shift_us
            if ev.get("ph") in ("s", "t", "f"):
                flow_pids.setdefault((ev.get("cat"), ev.get("id")),
                                     set()).add(pid)
            merged.append(ev)

    cross = sum(1 for pids in flow_pids.values() if len(pids) > 1)
    out_doc = {
        "traceEvents": merged,
        "displayTimeUnit": "ms",
        "otherData": {
            "merged_from": [label for label, _, _ in loaded],
            "epoch_unix_ns": str(min_epoch),
            "dropped_events": dropped_events,
            "flow_ids": len(flow_pids),
            "cross_process_flow_ids": cross,
        },
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(out_doc, f)
        f.write("\n")

    print(f"trace_merge: {len(merged)} events from {len(loaded)} process(es) "
          f"-> {args.out} ({len(flow_pids)} flow chain(s), {cross} "
          f"cross-process, {dropped_events} dropped at record time)")
    if cross < args.require_cross_flow:
        print(f"trace_merge: FAIL: {cross} cross-process flow chain(s), "
              f"need >= {args.require_cross_flow}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
