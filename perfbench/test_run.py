#!/usr/bin/env python3
"""Tests of the benchmark itself: the smoke mode of every workload, traced
and untraced, must print a well-formed result whose metrics match
BENCHMARK.json, and a directory holding only the benchmark must fail
without printing a result.

    python3 perfbench/test_run.py        (from the repository root)
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.relpath(RUN, ROOT)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        code, lines, err = run(["--workload", workload, "--seed", "3", "--seconds", "2",
                                "--trace", str(trace), "--smoke"])
        self.assertEqual(code, 0, err[-3000:])
        host = json.loads(lines[0])["host"]
        for key in ["nproc", "cpu_model", "rustc", "profile", "git_revision", "source_sha256"]:
            self.assertIn(key, host)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in listed])
        for m in listed:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

    def test_paper_50(self):
        self.check("paper_50", 0)
        self.check("paper_50", 1)

    def test_stress_20000(self):
        self.check("stress_20000", 0)
        self.check("stress_20000", 1)

    def test_dirqd_serve(self):
        self.check("dirqd_serve", 0)
        self.check("dirqd_serve", 1)

    def test_workloads_match_the_spec(self):
        from run import WORKLOADS  # noqa: E402 (same directory)
        self.assertEqual(WORKLOADS, [w["name"] for w in SPEC["workloads"]])


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for p in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                                ignore=shutil.ignore_patterns("target", "__pycache__"))
            code, lines, _ = run(["--workload", "paper_50", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertFalse(any('"correct"' in line for line in lines))
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    unittest.main()
