#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json through perfbench/run.py with
`--size tiny`, untraced and traced, and asserts that the result line has
exactly the keys correct/attempted/failed/metrics, that every metric
BENCHMARK.json names prints with its unit (end-to-end ones untraced,
per-layer ones traced), that every end-to-end metric is non-zero, and
that no operation failed (error rate 0, ok_rate 1). Exits 0 and prints
OK when all hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "6", "--trace", str(trace),
           "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d" % (workload, trace,
                                                        out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, defs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s trace=%d" % (workload, trace)
            try:
                result = run(workload, trace)
            except (AssertionError, ValueError, IndexError,
                    subprocess.TimeoutExpired) as e:
                failures.append("%s: %s" % (where, e))
                continue
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                failures.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append("%s: %d of %d operations failed" %
                                (where, result["failed"], result["attempted"]))
            metrics = result["metrics"]
            if sorted(metrics) != sorted(d["name"] for d in defs):
                failures.append("%s: metric names differ from BENCHMARK.json"
                                % where)
            for d in defs:
                m = metrics.get(d["name"])
                if m is None or m.get("unit") != d["unit"]:
                    failures.append("%s: %s missing or wrong unit" %
                                    (where, d["name"]))
                elif trace == 0 and not m["value"] > 0:
                    failures.append("%s: %s is %r" % (where, d["name"],
                                                      m["value"]))
            if trace == 0 and metrics.get("ok_rate", {}).get("value") != 1:
                failures.append("%s: error rate is not 0" % where)
            print("%s: %d operations, %d metrics" %
                  (where, result["attempted"], len(metrics)), flush=True)
    for failure in failures:
        print("FAIL " + failure)
    if failures:
        return 1
    print("OK (benchmark self-check)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
