#!/usr/bin/env python3
"""Self-test of the benchmark: a short smoke run of every workload.

Usage (from the repository root): python3 perfbench/test_perfbench.py

For every workload, untraced and traced, it checks that the run is correct,
that every metric named in BENCHMARK.json is emitted with its unit (and that
no end-to-end metric is 0), that the trace file passes
tools/check_trace_schema.py, that one seed reproduces its input digests and
another seed changes them, that `--workload all` runs every workload, and
that the benchmark refuses to run without the repository's sources.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "out")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def smoke(workload, seed, trace):
    result = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if result.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d:\n%s"
                             % (workload, seed, trace, result.returncode,
                                result.stderr[-4000:]))
    lines = result.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


def digest_line(lines):
    return [line for line in lines if line.startswith("digest ")]


class SmokeTest(unittest.TestCase):
    contract = load_contract()

    def check_run(self, workload, trace):
        lines, result = smoke(workload, 7, trace)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        failed_checks = [l for l in lines if l.startswith("check FAIL")]
        self.assertEqual(failed_checks, [])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        table = self.contract["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in table}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            if not trace:
                self.assertGreater(m["value"], 0, name)
        return lines

    def test_every_workload_untraced_and_traced(self):
        for w in self.contract["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0)
                self.check_run(w["name"], 1)
                path = os.path.join(TRACE_DIR,
                                    "trace-%s-7.json" % w["name"])
                check = subprocess.run(
                    [sys.executable,
                     os.path.join(ROOT, "tools", "check_trace_schema.py"),
                     path], stdout=subprocess.PIPE, text=True)
                self.assertEqual(check.returncode, 0, check.stdout)

    def test_seed_fixes_inputs(self):
        for w in self.contract["workloads"]:
            with self.subTest(workload=w["name"]):
                first = digest_line(smoke(w["name"], 3, 0)[0])
                again = digest_line(smoke(w["name"], 3, 0)[0])
                other = digest_line(smoke(w["name"], 4, 0)[0])
                self.assertEqual(len(first), 1)
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)

    def test_all_runs_every_workload(self):
        result = subprocess.run(
            [sys.executable, RUN, "--workload", "all", "--seed", "5",
             "--seconds", "0.5", "--trace", "0", "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stderr[-4000:])
        verdicts = [json.loads(line) for line in result.stdout.splitlines()
                    if line.startswith("{")]
        self.assertEqual(len(verdicts), len(self.contract["workloads"]))
        self.assertTrue(all(v["correct"] for v in verdicts))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, RUN, "--workload", "commit_local", "--seed",
                 "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(result.returncode, 0)
            self.assertNotIn('"metrics"', result.stdout)


if __name__ == "__main__":
    unittest.main()
