#!/usr/bin/env python3
"""Tests for bench/diff_fuzz_report.py.

    python3 bench/test_diff_fuzz_report.py
"""
import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "diff_fuzz_report.py")


def seed_row(seed, problems, tp, fp, precision, violations=()):
    return {"seed": seed, "pods": 1, "steps": 9, "periods": 21,
            "problems": problems, "true_positives": tp,
            "false_positives": fp, "precision": precision, "recall": 1.0,
            "deterministic": True,
            "violations": [{"oracle": o, "detail": "x"} for o in violations]}


BASE = {
    "base_seed": 1,
    "num_seeds": 3,
    "failures": 1,
    "seeds": [
        seed_row(1, 10, 8, 0, 1.0),
        seed_row(2, 12, 9, 0, 0.9),
        seed_row(3, 11, 7, 1, 0.875, violations=("phantom-verdict",)),
    ],
}


class DiffFuzzReportTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def diff(self, new_doc):
        paths = []
        for name, doc in (("old.json", BASE), ("new.json", new_doc)):
            path = os.path.join(self.tmp.name, name)
            with open(path, "w") as f:
                json.dump(doc, f)
            paths.append(path)
        proc = subprocess.run([sys.executable, SCRIPT, *paths],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_identical_reports_pass(self):
        code, out = self.diff(BASE)
        self.assertEqual(code, 0)
        self.assertIn("failing: 3\n", out)
        self.assertIn("problems 33  true_positives 24  false_positives 1", out)
        self.assertIn("0 seed(s) changed", out)

    def test_new_failing_seed_fails(self):
        doc = copy.deepcopy(BASE)
        doc["seeds"][0]["violations"] = [{"oracle": "recovery", "detail": "x"}]
        code, out = self.diff(doc)
        self.assertEqual(code, 1)
        self.assertIn("NEW fails seeds OLD passed: 1", out)

    def test_false_positive_rise_fails(self):
        doc = copy.deepcopy(BASE)
        doc["seeds"][1]["false_positives"] = 1
        code, out = self.diff(doc)
        self.assertEqual(code, 1)
        self.assertIn("NEW has more false positives: 1 -> 2", out)

    def test_changed_seed_row_is_printed(self):
        doc = copy.deepcopy(BASE)
        doc["seeds"][1].update(problems=13, true_positives=10, precision=1.0)
        code, out = self.diff(doc)
        self.assertEqual(code, 0)
        self.assertIn("seed 2: problems 12 -> 13, true_positives 9 -> 10, "
                      "precision 0.9 -> 1\n", out)
        self.assertIn("1 seed(s) changed", out)
        self.assertNotIn("seed 1:", out)


if __name__ == "__main__":
    unittest.main()
