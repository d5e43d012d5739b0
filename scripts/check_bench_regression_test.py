#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py (run by ctest when python3 exists).

Regression coverage for two gate bugs:
  * "equals" used plain ==, and Python conflates bool with int
    (True == 1), so an artifact that switched a boolean invariant to the
    number 1 still passed the gate.
  * resolve()'s list filters compared str(field) == selector, so the
    selector [threads=1] never matched an element whose field was the
    JSON number 1.0 ("1.0" != "1").
It also checks the committed baseline against the tree: every gated
artifact must come from a bench that still exists and is still built.
"""

import json
import os
import re
import unittest

import check_bench_regression as cbr


class ValuesEqualTest(unittest.TestCase):
    def test_bool_matches_only_bool(self):
        self.assertTrue(cbr.values_equal(True, True))
        self.assertTrue(cbr.values_equal(False, False))
        self.assertFalse(cbr.values_equal(True, False))
        # The regression: True == 1 in Python, but the gate must reject it.
        self.assertFalse(cbr.values_equal(True, 1))
        self.assertFalse(cbr.values_equal(1, True))
        self.assertFalse(cbr.values_equal(False, 0))
        self.assertFalse(cbr.values_equal(0.0, False))

    def test_numeric_cross_type(self):
        self.assertTrue(cbr.values_equal(5, 5.0))
        self.assertTrue(cbr.values_equal(5.0, 5))
        self.assertFalse(cbr.values_equal(5, 6.0))

    def test_other_types_need_same_type(self):
        self.assertTrue(cbr.values_equal("ok", "ok"))
        self.assertFalse(cbr.values_equal("1", 1))
        self.assertFalse(cbr.values_equal(None, 0))


class FieldMatchesTest(unittest.TestCase):
    def test_numeric_field_matches_selector_string(self):
        # The regression: a JSON field of 1.0 must match the selector "1".
        self.assertTrue(cbr.field_matches(1.0, "1"))
        self.assertTrue(cbr.field_matches(1, "1"))
        self.assertTrue(cbr.field_matches(1, "1.0"))
        self.assertFalse(cbr.field_matches(2, "1"))
        self.assertFalse(cbr.field_matches(1.5, "abc"))

    def test_bool_field(self):
        self.assertTrue(cbr.field_matches(True, "true"))
        self.assertTrue(cbr.field_matches(False, "false"))
        self.assertFalse(cbr.field_matches(True, "false"))
        self.assertFalse(cbr.field_matches(True, "1"))

    def test_string_field(self):
        self.assertTrue(cbr.field_matches("Meta", "Meta"))
        self.assertFalse(cbr.field_matches("Meta", "meta"))


class ResolveTest(unittest.TestCase):
    DOC = {
        "sweep": [
            {"variant": "Meta", "threads": 1.0, "rows_per_s": 10.0},
            {"variant": "Meta", "threads": 4, "rows_per_s": 30.0},
            {"variant": "AL", "threads": 1.0, "rows_per_s": 5.0},
        ],
        "parity": {"identical": True},
    }

    def test_numeric_filter_matches_float_field(self):
        got = cbr.resolve(self.DOC, "sweep[variant=Meta,threads=1].rows_per_s")
        self.assertEqual(got, 10.0)

    def test_int_field(self):
        got = cbr.resolve(self.DOC, "sweep[variant=Meta,threads=4].rows_per_s")
        self.assertEqual(got, 30.0)

    def test_dotted_path(self):
        self.assertIs(cbr.resolve(self.DOC, "parity.identical"), True)

    def test_no_match_raises(self):
        with self.assertRaises(cbr.MetricError):
            cbr.resolve(self.DOC, "sweep[variant=Meta,threads=2].rows_per_s")

    def test_ambiguous_match_raises(self):
        with self.assertRaises(cbr.MetricError):
            cbr.resolve(self.DOC, "sweep[variant=Meta].rows_per_s")


class RunCheckTest(unittest.TestCase):
    ARTIFACTS = {
        "BENCH_x.json": {
            "flag": True,
            "count": 1,
            "rows_per_s": 80.0,
        }
    }

    def test_equals_bool_vs_number_fails(self):
        check = {"file": "BENCH_x.json", "metric": "count", "equals": True}
        status, _, _, _ = cbr.run_check(check, self.ARTIFACTS)
        self.assertEqual(status, "FAIL")

    def test_equals_bool_ok(self):
        check = {"file": "BENCH_x.json", "metric": "flag", "equals": True}
        status, _, _, _ = cbr.run_check(check, self.ARTIFACTS)
        self.assertEqual(status, "ok")

    def test_numeric_gate(self):
        check = {
            "file": "BENCH_x.json",
            "metric": "rows_per_s",
            "baseline": 100.0,
            "direction": "higher",
            "threshold": 0.25,
        }
        status, _, _, _ = cbr.run_check(check, self.ARTIFACTS)
        self.assertEqual(status, "ok")
        check["threshold"] = 0.1
        status, _, _, _ = cbr.run_check(check, self.ARTIFACTS)
        self.assertEqual(status, "FAIL")

    def test_informational_never_fails(self):
        check = {
            "file": "BENCH_x.json",
            "metric": "count",
            "equals": True,
            "informational": True,
        }
        status, _, _, _ = cbr.run_check(check, self.ARTIFACTS)
        self.assertEqual(status, "info")


class BaselineFilesTest(unittest.TestCase):
    """A bench deleted while its gates stay in bench_baseline.json fails
    here, under ctest, instead of at the CI gate step."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def test_every_gated_artifact_has_a_built_bench(self):
        baseline = os.path.join(self.ROOT, "scripts", "bench_baseline.json")
        with open(baseline) as f:
            checks = json.load(f)["checks"]
        with open(os.path.join(self.ROOT, "bench", "CMakeLists.txt")) as f:
            built = set(
                re.findall(r"^lte_add_bench\((\w+)\)", f.read(), re.M))
        self.assertTrue(checks)
        for check in checks:
            with self.subTest(file=check["file"], metric=check["metric"]):
                match = re.fullmatch(r"BENCH_(\w+)\.json", check["file"])
                self.assertIsNotNone(match)
                bench = "bench_" + match.group(1)
                source = os.path.join(self.ROOT, "bench", bench + ".cc")
                self.assertTrue(os.path.isfile(source), source)
                self.assertIn(bench, built)


if __name__ == "__main__":
    unittest.main()
