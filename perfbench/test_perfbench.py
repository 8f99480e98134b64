#!/usr/bin/env python3
"""Tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs the --smoke variant of every workload in both modes (about a minute in
all) and checks the printed metric names and units against BENCHMARK.json;
checks that the benchmark refuses to run without the sources; and checks the
steadiness tool's comparison against the bounds.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import steady  # noqa: E402


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def scratch_dir():
    """A fresh directory beside the benchmark's build tree."""
    parent = os.path.dirname(run.build_dir())
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(dir=parent)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        prov = json.loads(lines[-2])["provenance"]
        self.assertEqual(prov["workload"], workload)
        for key in ("build_type", "compiler", "nproc", "seed", "params",
                    "source_sha256"):
            self.assertIn(key, prov)
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        spec = bench_spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for name, got in result["metrics"].items():
                self.assertGreater(got["value"], 0, name)
        return result

    def test_workloads(self):
        for w in bench_spec()["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)


class RefusalTest(unittest.TestCase):
    def test_fails_without_sources(self):
        # Only BENCHMARK.json and perfbench/: no src/ to build.
        tmp = scratch_dir()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, "dml_alltoall", 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(tmp)

    def test_unknown_workload(self):
        proc = run_bench(ROOT, "no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CompareTest(unittest.TestCase):
    def saved(self, path, wall):
        runs = [{"seed": i, "exit": 0, "ok": True, "result": {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {"wall_s": {"value": v, "unit": "s"}}}}
            for i, v in enumerate(wall)]
        with open(path, "w") as f:
            json.dump({"workload": "dml_alltoall", "trace": 0, "runs": runs}, f)

    def compare(self, base, head):
        tmp = scratch_dir()
        try:
            a, b = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
            self.saved(a, base)
            self.saved(b, head)
            args = type("Args", (), {"base": a, "head": b})
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    return steady.cmd_compare(args)
                finally:
                    sys.stdout = stdout
        finally:
            shutil.rmtree(tmp)

    def test_within_bound(self):
        self.assertEqual(self.compare([10.0, 10.1, 9.9], [10.2, 10.3, 10.1]), 0)

    def test_regression(self):
        self.assertEqual(self.compare([10.0, 10.1, 9.9], [14.0, 14.1, 13.9]), 1)

    def test_summary_quartiles(self):
        med, q1, q3, spread = steady.summarise([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((med, q1, q3), (3.0, 1.5, 4.5))
        self.assertAlmostEqual(spread, 1.0)


if __name__ == "__main__":
    unittest.main()
