#!/usr/bin/env python3
"""Builds the armusbench binary from this source tree and runs one workload.

    python3 armusbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the source tree. The first run configures and builds
the Armus library and the benchmark binary (Release) under .bench_build/ (or under
$CARGO_TARGET_DIR when set); later runs only rebuild what changed. The last
output line is the result object: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1 (whose spans are
written to .bench_build/spans/), each with the unit declared there. A
per-layer metric the workload does not measure reads 0. Extra arguments
(--tiny, --miscount) pass through to the binary. The exit status is
non-zero when the build fails, a verdict gate fails, an end-to-end metric
is missing or the run exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"armusbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "verifier.h")):
        fail(f"no Armus source tree at {ROOT}")
    build_dir = os.path.join(build_root(), "armusbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "armusbench")


def sheet(measured, traced):
    """The declared sheet: every metric of BENCHMARK.json's end_to_end (or,
    traced, per_layer) list with its unit. Measured figures that are not
    declared are left out."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for metric in spec["per_layer" if traced else "end_to_end"]:
        name = metric["name"]
        if name not in measured and not traced:
            fail(f"end-to-end metric {name} was not measured")
        out[name] = {"value": measured.get(name, 0), "unit": metric["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    binary = build()
    scratch = os.path.join(build_root(), "tmp")
    spans = os.path.join(build_root(), "spans")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(spans, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch-dir", scratch]
    if args.trace == "1":
        # One file per workload, overwritten by its next traced run.
        command += ["--spans-out", os.path.join(spans, f"{args.workload}.csv")]
    command += extra

    # The binary must see none of the ARMUS_* knobs (trace/event sinks,
    # store URLs) that would attach extra observers to the measured code.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARMUS_")}
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"workload {args.workload} printed no result (exit {done.returncode})")
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    result = json.loads(lines[-1])
    # The names the binary measured, for the self-test.
    print("armusbench: measured " + json.dumps(sorted(result["metrics"])),
          file=sys.stderr)
    result["metrics"] = sheet(result["metrics"], args.trace == "1")
    print(json.dumps(result), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
