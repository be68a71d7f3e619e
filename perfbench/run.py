#!/usr/bin/env python3
"""End-to-end benchmark of warrow: build the harness, run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spec-cold --seed 1 --seconds 15 --trace 0

Builds `perfbench_harness` from the checkout's sources into
`.bench_build/perfbench` (Release; the first run compiles the analyzer),
runs it, and relays its standard output. The last line printed is the
result object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json under --trace 0 and its per-layer
metrics under --trace 1. Any build, run or format failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("spec-cold", "fig7-cells", "edit-resolve", "stress-rings")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# The harness must finish well inside the caller's 180 s limit. This is
# the only copy of the limit: the harness gets it as --time-limit and
# rejects a --seconds that leaves no room for the rest of the run.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        fail(f"build step failed: {' '.join(cmd)}: {err}")


def build():
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            fail(f"{needed} not found: run from the root of a warrow checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD_DIR, "--target",
                 "perfbench_harness", "-j", jobs], timeout=1500)
    return os.path.join(BUILD_DIR, "perfbench_harness")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if present."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    group = spec.get("per_layer" if trace else "end_to_end", [])
    return {m["name"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    harness = build()
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--time-limit", str(RUN_TIMEOUT_S - 5), "--root", "."]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail(f"malformed result: {lines[-1]}")
    declared = expected_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ declared)}")
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
