#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at reduced size (run.py --smoke),
untraced and traced, and checks that each run exits 0, passes the
correctness gate, prints a trace digest, and reports exactly the metrics
BENCHMARK.json names (end_to_end untraced, per_layer traced) with their
units and finite values. Exits 1 on the first failure.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload, trace, expected):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    label = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        return "%s: exit %d\n%s%s" % (label, done.returncode, done.stdout[-2000:],
                                      done.stderr[-2000:])
    lines = done.stdout.strip().splitlines()
    if not any(line.startswith("trace digest:") for line in lines):
        return label + ": no trace digest printed"
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return label + ": result keys " + str(sorted(result))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        return label + ": gate " + lines[-1]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return "%s: missing %s, unexpected %s" % (label, missing, extra)
    for name, metric in metrics.items():
        if metric["unit"] != expected[name]:
            return "%s: %s unit %s, expected %s" % (label, name, metric["unit"], expected[name])
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            return "%s: %s value %r" % (label, name, metric["value"])
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            error = check_run(workload, trace, expected[trace])
            print("%-14s trace=%d %s" % (workload, trace, "ok" if error is None else "FAIL"))
            if error is not None:
                print(error)
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
