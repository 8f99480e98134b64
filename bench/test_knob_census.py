#!/usr/bin/env python3
"""Tests for bench/knob_census.py.

    python3 bench/test_knob_census.py
"""
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "knob_census.py")

HEADER = """\
#pragma once
struct InnerConfig {
  int c = 0;
};
class Widget {
 public:
  struct Params {
    TimeNs every = sec(5);  // nested: reported as Widget::Params
  };
  void poke();
};
struct OuterConfig {
  InnerConfig b{};
  std::function<void(int)> on_done;
  bool enabled = false;
  [[nodiscard]] bool valid() const { return enabled; }
};
"""


class KnobCensusTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        os.makedirs(os.path.join(self.tmp.name, "src", "mod"))
        with open(os.path.join(self.tmp.name, "src", "mod", "mod.h"),
                  "w") as f:
            f.write(HEADER)

    def tearDown(self):
        self.tmp.cleanup()

    def census(self, setters):
        """Runs the census over the fixture with `setters` in tests/."""
        os.makedirs(os.path.join(self.tmp.name, "tests"), exist_ok=True)
        with open(os.path.join(self.tmp.name, "tests", "t.cpp"), "w") as f:
            f.write(setters)
        proc = subprocess.run([sys.executable, SCRIPT, self.tmp.name],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_set_fields_pass(self):
        code, out = self.census(
            "void f(OuterConfig& o, Widget::Params* p) {\n"
            "  o.b.c = 1;\n"
            "  o.on_done = nullptr;\n"
            "  o.enabled = true;\n"
            "  p->every = sec(1);\n"
            "}\n")
        self.assertEqual(code, 0, out)
        self.assertEqual(out, "structs: 3  fields: 5  unset: 0\n")

    def test_unset_field_fails_and_is_named(self):
        code, out = self.census(
            "void f(OuterConfig& o) { o.b.c = 1; o.on_done = nullptr; }\n")
        self.assertEqual(code, 1)
        self.assertIn("unset: 2", out)
        self.assertIn("Widget::Params::every (src/mod/mod.h)\n", out)
        self.assertIn("OuterConfig::enabled (src/mod/mod.h)\n", out)

    def test_reaching_through_a_field_sets_it(self):
        code, out = self.census("void f(OuterConfig& o) { o.b.c = 1; }\n")
        self.assertEqual(code, 1)
        self.assertNotIn("OuterConfig::b ", out)
        self.assertNotIn("InnerConfig::c ", out)

    def test_comparison_is_not_a_setter(self):
        code, out = self.census(
            "bool f(const OuterConfig& o) { return o.enabled == true; }\n")
        self.assertEqual(code, 1)
        self.assertIn("OuterConfig::enabled (src/mod/mod.h)\n", out)


if __name__ == "__main__":
    unittest.main()
