#!/usr/bin/env python3
"""Tests for bench/knob_census.py.

    python3 bench/test_knob_census.py
"""
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import knob_census  # noqa: E402

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

    def write(self, top, setters):
        os.makedirs(os.path.join(self.tmp.name, top), exist_ok=True)
        with open(os.path.join(self.tmp.name, top, "use.cpp"), "w") as f:
            f.write(setters)

    def census(self, setters, test_setters="", seams=None):
        """Runs the census over the fixture with `setters` in bench/,
        `test_setters` in tests/ and the `seams` table."""
        self.write("bench", setters)
        self.write("tests", test_setters)
        return knob_census.census(self.tmp.name, seams or {})

    ALL_SET = ("void f(OuterConfig& o, Widget::Params* p) {\n"
               "  o.b.c = 1;\n"
               "  o.on_done = nullptr;\n"
               "  o.enabled = true;\n"
               "  p->every = sec(1);\n"
               "}\n")
    # Everything but OuterConfig::enabled.
    ALL_BUT_ENABLED = ("void f(OuterConfig& o, Widget::Params* p) {\n"
                       "  o.b.c = 1;\n"
                       "  o.on_done = nullptr;\n"
                       "  p->every = sec(1);\n"
                       "}\n")
    TEST_SETS_ENABLED = "void t(OuterConfig& o) { o.enabled = true; }\n"

    def test_set_fields_pass(self):
        code, out = self.census(self.ALL_SET)
        self.assertEqual(code, 0, out)
        self.assertEqual(out, "structs: 3  fields: 5  unset: 0  seams: 0\n")

    def test_field_set_only_in_tests_fails(self):
        code, out = self.census(self.ALL_BUT_ENABLED, self.TEST_SETS_ENABLED)
        self.assertEqual(code, 1)
        self.assertIn("unset: 1  seams: 0", out)
        self.assertIn("OuterConfig::enabled (src/mod/mod.h): set only under "
                      "tests/\n", out)

    def test_listed_seam_passes(self):
        code, out = self.census(self.ALL_BUT_ENABLED, self.TEST_SETS_ENABLED,
                                {"OuterConfig::enabled": "T.NeedsIt"})
        self.assertEqual(code, 0, out)
        self.assertEqual(out, "structs: 3  fields: 5  unset: 0  seams: 1\n"
                              "seam: OuterConfig::enabled (T.NeedsIt)\n")

    def test_stale_seam_fails(self):
        code, out = self.census(self.ALL_SET, seams={
            "OuterConfig::enabled": "T.NeedsIt",
            "OuterConfig::gone": "T.Gone"})
        self.assertEqual(code, 1)
        self.assertIn("unset: 0  seams: 0", out)
        self.assertIn("stale seam: OuterConfig::enabled is set outside "
                      "tests/\n", out)
        self.assertIn("stale seam: OuterConfig::gone is not a config field\n",
                      out)
        code, out = self.census(self.ALL_BUT_ENABLED,
                                seams={"OuterConfig::enabled": "T.NeedsIt"})
        self.assertEqual(code, 1)
        self.assertIn("stale seam: OuterConfig::enabled is set by no test\n",
                      out)

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
