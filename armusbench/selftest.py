#!/usr/bin/env python3
"""Self-test of the armusbench benchmark, at tiny sizes.

    python3 armusbench/selftest.py

Run from the root of the source tree. For every workload in BENCHMARK.json
it checks that an untraced run prints exactly the end-to-end metrics and a
traced run exactly the per-layer metrics, each with its declared unit, that
both runs pass their verdict gates, and that a run whose gates expect one
planted cycle more than was planted (--miscount) fails. Across the
workloads, every declared per-layer metric must be measured by at least
one of them (not only filled in as 0). Exits non-zero on the first
mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    measured = set()
    for line in done.stderr.splitlines():
        if line.startswith("armusbench: measured "):
            measured = set(json.loads(line[len("armusbench: measured "):]))
    return done.returncode, result, done.stderr, measured


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_sheet(workload, trace, declared):
    code, result, stderr, measured = run(workload, trace)
    label = f"{workload} --trace {trace}"
    check(code == 0, f"{label} exited {code}: {stderr[-2000:]}")
    check(result is not None and set(result) ==
          {"correct", "attempted", "failed", "metrics"},
          f"{label}: last line is not a result object")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: verdict gates failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted must be a positive integer")
    metrics = result["metrics"]
    check(set(metrics) == set(declared),
          f"{label}: metrics differ from BENCHMARK.json: missing "
          f"{sorted(set(declared) - set(metrics))}, extra "
          f"{sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        check(metrics[name]["unit"] == unit,
              f"{label}: {name} has unit {metrics[name]['unit']}, not {unit}")
        check(isinstance(metrics[name]["value"], (int, float)),
              f"{label}: {name} is not a number")
    return metrics, measured


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    layers_measured = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        metrics, _ = check_sheet(workload, 0, end_to_end)
        for name, value in metrics.items():
            check(value["value"] > 0, f"{workload}: {name} reads 0")
        _, measured = check_sheet(workload, 1, per_layer)
        layers_measured |= measured
        code, result, _, _ = run(workload, 0, "--miscount")
        check(code != 0, f"{workload}: an off-by-one planted count passed")
        check(result is not None and result["correct"] is False,
              f"{workload}: an off-by-one planted count reported correct")
        print(f"selftest: {workload} ok", flush=True)
    check(set(per_layer) <= layers_measured,
          "per-layer metrics no workload measures: "
          f"{sorted(set(per_layer) - layers_measured)}")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
