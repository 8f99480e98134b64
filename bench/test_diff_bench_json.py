#!/usr/bin/env python3
"""Tests for bench/diff_bench_json.py.

    python3 bench/test_diff_bench_json.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_bench_json.py")

BASE = {
    "bench": "stage_profile",
    "params": {"records_list": "20000,100000"},
    "metrics": {
        "runs": [
            {"records": 20000, "wall_ms": 10.0, "events_per_sec": 1000,
             "stages": [{"stage": "drain.sla", "total_ns": 500},
                        {"stage": "drain.vote", "total_ns": 40}]},
            {"records": 100000, "wall_ms": 50.0, "events_per_sec": 2000,
             "stages": []},
        ],
        "reduction": {"bytes_x": 4.0},
    },
}


class DiffBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def diff(self, new_doc, *extra, base=BASE):
        paths = []
        for name, doc in (("old.json", base), ("new.json", new_doc)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths, *extra],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_identical_files_pass_silently(self):
        self.assertEqual(self.diff(BASE), (0, ""))

    def test_wall_ms_rise_fails(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["runs"][0]["wall_ms"] = 12.0
        code, out = self.diff(doc)
        self.assertEqual(code, 1)
        self.assertIn("runs[records=20000]/wall_ms: 10 -> 12", out)
        self.assertIn("REGRESSION", out)

    def test_small_time_rises_pass(self):
        # Stage rows of a few microseconds, from one uncalibrated run.
        doc = copy.deepcopy(BASE)
        base = copy.deepcopy(BASE)
        base["metrics"]["runs"][0]["stages"] = [
            {"stage": "drain.diaglog", "min_ns": 207},
            {"stage": "drain.bottleneck", "total_ns": 8761}]
        doc["metrics"]["runs"][0]["stages"] = [
            {"stage": "drain.diaglog", "min_ns": 429},
            {"stage": "drain.bottleneck", "total_ns": 9647}]
        code, out = self.diff(doc, base=base)
        self.assertEqual(code, 0)
        self.assertIn("stages[stage=drain.diaglog]/min_ns: 207 -> 429", out)
        self.assertNotIn("REGRESSION", out)

    def test_time_rise_past_the_floor_fails(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["runs"][0]["stages"][0]["total_ns"] = 2_000_500
        code, out = self.diff(doc)
        self.assertEqual(code, 1)
        self.assertIn("stages[stage=drain.sla]/total_ns: 500 -> 2.0005e+06",
                      out)
        self.assertIn("REGRESSION", out)

    def test_events_per_sec_rise_passes(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["runs"][0]["events_per_sec"] = 1200
        code, out = self.diff(doc)
        self.assertEqual(code, 0)
        self.assertIn("runs[records=20000]/events_per_sec", out)
        self.assertNotIn("REGRESSION", out)

    def test_rate_fall_fails(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["reduction"]["bytes_x"] = 3.0
        self.assertEqual(self.diff(doc)[0], 1)

    def test_reordered_rows_are_no_change(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["runs"].reverse()
        doc["metrics"]["runs"][1]["stages"].reverse()
        self.assertEqual(self.diff(doc), (0, ""))

    def test_moves_within_threshold_are_ignored(self):
        doc = copy.deepcopy(BASE)
        doc["metrics"]["runs"][0]["wall_ms"] = 12.0
        self.assertEqual(self.diff(doc, "--threshold", "0.25"), (0, ""))

    def test_added_and_missing_paths_are_listed_not_failed(self):
        doc = copy.deepcopy(BASE)
        del doc["metrics"]["reduction"]
        doc["metrics"]["cpu_ms"] = 99.0
        code, out = self.diff(doc)
        self.assertEqual(code, 0)
        self.assertIn("reduction/bytes_x: only in", out)
        self.assertIn("cpu_ms: only in", out)


if __name__ == "__main__":
    unittest.main()
