#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from ../src, runs one workload,
runs its verify pass, and prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); traced runs also write a Chrome trace-event file to
<build dir>/traces/<workload>-seed<n>.json. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json. Exits nonzero when a correctness check fails, and
without a result when the program cannot be built. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must finish well inside three minutes.
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the program's sources (src/) are missing; nothing to build")
    cmake_dir = os.path.join(build_dir(), "cmake")
    binary = os.path.join(cmake_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def invoke(binary, args):
    """Runs the binary; returns its parsed JSON line."""
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench {' '.join(args)} printed nothing "
             f"(exit {done.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    binary = build()

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    measure = common + ["--seconds", str(args.seconds),
                        "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")
        measure += ["--trace-out", trace_path]
    result = invoke(binary, measure)
    # Checks that need extra state run in their own process, so they do
    # not inflate the measured peak RSS.
    verified = invoke(binary, common + ["--verify"])
    errors = result["errors"] + verified["errors"]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif args.trace:
            value = 0.0  # the layer does not run in this workload
        else:
            # A run that failed a check stops early and reports none.
            if not result["errors"]:
                errors.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}

    for e in errors:
        print(f"perfbench: CHECK FAILED: {e}", file=sys.stderr)
    if args.trace:
        print(f"perfbench: trace written to {trace_path}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    if attempted == 0:  # the first repetition already failed
        attempted, failed = 1, 1
    # Each failed verify check is a wrong result among the attempted ones.
    failed = min(attempted, failed + len(verified["errors"]))
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
