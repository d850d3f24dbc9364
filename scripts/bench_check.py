#!/usr/bin/env python3
"""Check BENCH_*.json artifacts against the bench record schema.

Every exit-gated bench writes its artifact through bench::Report
(bench/bench_util.h):

  {"bench": str,
   "context": {"build_type": str, "compiler": str, "cores": int >= 1},
   "params": {name: number, ...},
   "records": [{"metric": str, "unit": str, "value": number | null,
                "better": "lower" | "higher", "gate": number | null,
                "verdict": "pass" | "fail" | "report" | "skipped: <reason>"},
               ...],
   "verdict": "pass" | "fail"}

A gated record's verdict must follow its gate (lower: value < gate; higher:
value >= gate; a null value fails), an ungated one reads "report" or
"skipped: <reason>", metric names are unique, and the artifact's verdict is
"fail" exactly when a record failed.

Usage:
  bench_check.py build-rel/bench/BENCH_trace.json [more artifacts...]

Exits 0 when every artifact has the schema and its verdict is "pass"; else
prints one line per problem and exits 1.
"""

import json
import math
import sys

RECORD_KEYS = ("metric", "unit", "value", "better", "gate", "verdict")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def record_problems(i, r):
    where = "records[%d]" % i
    if not isinstance(r, dict) or sorted(r) != sorted(RECORD_KEYS):
        return ["%s: want exactly the keys %s" % (where, ", ".join(RECORD_KEYS))]
    where += " (%r)" % r["metric"]
    problems = []
    for key in ("metric", "unit", "verdict"):
        if not isinstance(r[key], str) or not r[key]:
            problems.append("%s: %s is not a non-empty string" % (where, key))
    if r["value"] is not None and not is_number(r["value"]):
        problems.append("%s: value is not a number or null" % where)
    if r["gate"] is not None and not is_number(r["gate"]):
        problems.append("%s: gate is not a number or null" % where)
    if r["better"] not in ("lower", "higher"):
        problems.append("%s: better is not lower or higher" % where)
    if problems:
        return problems

    verdict = r["verdict"]
    if r["gate"] is None:
        if verdict != "report" and not verdict.startswith("skipped: "):
            problems.append("%s: ungated record has verdict %r" % (where, verdict))
        return problems
    value, gate = r["value"], r["gate"]
    if value is None or math.isnan(value):
        ok = False
    elif r["better"] == "lower":
        ok = value < gate
    else:
        ok = value >= gate
    if verdict != ("pass" if ok else "fail"):
        problems.append("%s: verdict %r does not follow value %r against %s gate %r"
                        % (where, verdict, value, r["better"], gate))
    return problems


def artifact_problems(doc):
    if not isinstance(doc, dict):
        return ["not a JSON object"]
    want = ("bench", "context", "params", "records", "verdict")
    if sorted(doc) != sorted(want):
        return ["want exactly the keys " + ", ".join(want)]
    problems = []
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        problems.append("bench is not a non-empty string")

    context = doc["context"]
    if not isinstance(context, dict):
        problems.append("context is not an object")
    else:
        for key in ("build_type", "compiler"):
            if not isinstance(context.get(key), str):
                problems.append("context.%s is not a string" % key)
        cores = context.get("cores")
        if not is_number(cores) or cores < 1 or cores != int(cores):
            problems.append("context.cores is not a whole number >= 1")

    params = doc["params"]
    if not isinstance(params, dict):
        problems.append("params is not an object")
    else:
        problems += ["params.%s is not a number" % k
                     for k, v in params.items() if not is_number(v)]

    records = doc["records"]
    if not isinstance(records, list) or not records:
        return problems + ["records is not a non-empty list"]
    for i, r in enumerate(records):
        problems += record_problems(i, r)
    metrics = [r.get("metric") for r in records if isinstance(r, dict)]
    problems += ["metric %r appears %d times" % (m, metrics.count(m))
                 for m in sorted(set(metrics), key=str) if metrics.count(m) > 1]

    failed = [r["metric"] for r in records
              if isinstance(r, dict) and r.get("verdict") == "fail"]
    expected = "fail" if failed else "pass"
    if doc["verdict"] != expected:
        problems.append("verdict %r, but the records say %r" % (doc["verdict"], expected))
    elif failed:
        problems.append("verdict fail: " + ", ".join(map(str, failed)))
    return problems


def main(paths):
    if not paths:
        print("usage: bench_check.py BENCH_x.json [...]", file=sys.stderr)
        return 2
    bad = 0
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as e:
            problems = ["cannot read: %s" % e]
        else:
            problems = artifact_problems(doc)
        if problems:
            bad += 1
            for p in problems:
                print("%s: %s" % (path, p))
        else:
            print("%s: ok (%s, %d records)" % (path, doc["bench"], len(doc["records"])))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
