#!/usr/bin/env python3
"""Process-level self-tests of the benchmark harness.

    python3 perfbench/tests/test_harness.py --build-dir BUILD --root ROOT

BUILD holds the built `perfbench_harness` and `bench_stress` (the
perfbench CMake project builds both; `ctest` there runs this file), ROOT
is the warrow checkout. The tests check that a wrong pinned alarm count
lowers `ok_rate` without ending the run, that every declared metric name
is valid and printed, that a `--seconds` leaving no room under
`--time-limit` is rejected without a result, and that `bytes_per_unknown`
on stress-rings agrees with bench_stress's peak_rss_kb / unknowns at the
same size (it lies in the bracket bench_stress's two records span).
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

ARGS = None
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
# Slack on either side of bench_stress's bracket (see the test).
BRACKET_SLACK = 0.05


def harness(*extra):
    """Runs the harness; returns (exit code, result object or None, stdout)."""
    cmd = [os.path.join(ARGS.build_dir, "perfbench_harness"), "--root",
           ARGS.root, "--out-dir", os.path.join(ARGS.build_dir, "out"),
           *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def metric(result, name):
    return result["metrics"][name]["value"]


class HarnessTest(unittest.TestCase):
    def test_wrong_pinned_alarm_count_lowers_ok_rate(self):
        pinned = os.path.join(ARGS.root, "perfbench", "verdicts.txt")
        code, result, _ = harness("--workload", "fig7-cells", "--seed", "1",
                                  "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(metric(result, "ok_rate"), 1.0)

        with open(pinned) as f:
            lines = f.read().split("\n")
        target = next(i for i, line in enumerate(lines)
                      if line.startswith("fig7-cells wcet/fac "))
        self.assertIn("interval/warrow=0", lines[target])
        lines[target] = lines[target].replace("interval/warrow=0",
                                              "interval/warrow=1")
        with tempfile.NamedTemporaryFile("w", dir=ARGS.build_dir,
                                         suffix=".txt", delete=False) as f:
            f.write("\n".join(lines))
            injected = f.name
        try:
            code, result, _ = harness("--workload", "fig7-cells", "--seed",
                                      "1", "--seconds", "1", "--trace", "0",
                                      "--verdicts", injected)
        finally:
            os.unlink(injected)
        self.assertEqual(code, 0, "a wrong verdict must not end the run")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(metric(result, "ok_rate"), 1.0)
        # Only the jobs on the mis-pinned input fail.
        self.assertLess(result["failed"], result["attempted"])

    def test_metric_names_are_valid_and_printed(self):
        with open(os.path.join(ARGS.root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = [m["name"] for m in spec[group]]
            for name in declared:
                self.assertRegex(name, NAME_RE)
            code, result, _ = harness("--workload", "fig7-cells", "--seed",
                                      "2", "--seconds", "1", "--trace",
                                      str(trace))
            self.assertEqual(code, 0)
            self.assertEqual(sorted(result["metrics"]), sorted(declared))

    def test_seconds_beyond_time_limit_are_rejected(self):
        # 20 s of jobs leave less than the check pass's reserve of 40 s.
        code, result, _ = harness("--workload", "fig7-cells", "--seed", "1",
                                  "--seconds", "20", "--trace", "0",
                                  "--time-limit", "40")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)

    def test_bytes_per_unknown_agrees_with_bench_stress(self):
        code, result, stdout = harness("--workload", "stress-rings", "--seed",
                                       "1", "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        size = re.search(r'"rings-(\d+)x(\d+)/', stdout)
        self.assertIsNotNone(size, "the run metadata names the ring size")
        rings, ring_size = size.group(1), size.group(2)

        # bench_stress --threads 1 solves the system twice in one process:
        # first in a fresh process (the parallel engine delegates to
        # sequential SLR+), then sequentially while the first σ is still
        # alive. Its two peak_rss_kb / unknowns figures bracket a harness
        # job, which runs in a process whose allocator kept the freed heap
        # of earlier jobs but holds no other σ.
        with tempfile.TemporaryDirectory(dir=ARGS.build_dir) as tmp:
            out = os.path.join(tmp, "stress.json")
            subprocess.run([os.path.join(ARGS.build_dir, "bench_stress"),
                            "--rings", rings, "--ring-size", ring_size,
                            "--threads", "1", "--json", out],
                           check=True, capture_output=True, timeout=170)
            with open(out) as f:
                records = [r for r in json.load(f) if "peak_rss_kb" in r]
        fresh, second = (r["peak_rss_kb"] * 1024 / r["unknowns"]
                         for r in records)
        measured = metric(result, "bytes_per_unknown")
        self.assertGreaterEqual(measured, fresh * (1 - BRACKET_SLACK),
                                f"harness {measured:.0f} B below a fresh "
                                f"bench_stress solve's {fresh:.0f} B")
        self.assertLessEqual(measured, second * (1 + BRACKET_SLACK),
                             f"harness {measured:.0f} B above bench_stress's "
                             f"second solve's {second:.0f} B")


def main():
    global ARGS
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", required=True)
    parser.add_argument("--root", required=True)
    ARGS, rest = parser.parse_known_args()
    ARGS.build_dir = os.path.abspath(ARGS.build_dir)
    ARGS.root = os.path.abspath(ARGS.root)
    unittest.main(argv=[sys.argv[0], *rest], verbosity=2)


if __name__ == "__main__":
    main()
