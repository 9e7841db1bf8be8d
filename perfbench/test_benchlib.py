"""Unit tests of the benchmark's own logic.

    python3 perfbench/test_benchlib.py
"""

import json
import unittest

import benchlib
import run


def report_line(tuples, seconds):
    """A minimal intro-run-report-v1 line with one ladder attempt."""
    stats = {"seconds": seconds, "var_points_to_tuples": tuples,
             "field_points_to_tuples": 10, "worklist_pops": 7}
    section = {
        "job": "p", "attempt": 1,
        "outcome": {"level": "introB", "status": "Completed",
                    "total_seconds": seconds, "metric_seconds": seconds / 2,
                    "attempts": [{"level": "introB", "tightened_round": 0,
                                  "status": "Completed", "won": True,
                                  "seconds": seconds, "stats": stats}]},
    }
    return json.dumps({"schema": "intro-run-report-v1",
                       "deterministic": section,
                       "cache": {"hits": 1, "misses": 0},
                       "timing": {"total_seconds": seconds}})


class PercentileRule(unittest.TestCase):
    def test_no_tail_without_ten_samples_beyond(self):
        self.assertIsNone(benchlib.percentile(range(99), 0.9))
        self.assertIsNone(benchlib.percentile(range(9), 0.9))
        self.assertIsNone(benchlib.percentile([], 0.5))

    def test_tail_with_ten_samples_beyond(self):
        self.assertAlmostEqual(benchlib.percentile(range(100), 0.9), 89.1)
        self.assertAlmostEqual(benchlib.percentile(range(20), 0.5), 9.5)

    def test_median_needs_no_tail(self):
        self.assertEqual(benchlib.median([5, 1, 3]), 3)
        self.assertEqual(benchlib.median([4, 1, 3, 2]), 2.5)


class SelfTime(unittest.TestCase):
    def test_children_cover_part_of_the_parent(self):
        spans = [
            ("job", 0, 100, -1, 0),
            ("a", 10, 30, 0, 0),
            ("b", 20, 50, 0, 0),    # overlaps a: the union counts once
            ("c", 90, 120, 0, 0),   # clipped to the parent's end
            ("a.child", 12, 18, 1, 0),
        ]
        self.assertEqual(benchlib.self_times(spans), [50, 14, 30, 30, 6])

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([("x", 5, 9, -1, 3)]), [4])


class OutputCheck(unittest.TestCase):
    def product(self, line):
        return {"jobs": [{"name": "p", "clean": True,
                          "final_class": "clean", "attempts": 1,
                          "report": line}]}

    def reference(self, line):
        return {"p": {"deterministic":
                      json.dumps(json.loads(line)["deterministic"])}}

    def test_wall_clock_members_may_differ(self):
        product = self.product(report_line(1000, 0.5))
        counts = run.check_outputs(product,
                                   self.reference(report_line(1000, 0.25)))
        self.assertFalse(product["jobs"][0]["failed"])
        self.assertEqual(counts["jobs"],
                         [["p", "introB", [("introB", 0, 1010, 7)]]])
        self.assertEqual(counts["cache"], {"hits": 1, "misses": 0})

    def test_planted_served_local_mismatch_fails_the_job(self):
        product = self.product(report_line(1001, 0.5))
        run.check_outputs(product, self.reference(report_line(1000, 0.5)))
        self.assertTrue(product["jobs"][0]["failed"])

    def test_garbled_report_fails_the_job(self):
        product = self.product("{not json")
        run.check_outputs(product, self.reference(report_line(1000, 0.5)))
        self.assertTrue(product["jobs"][0]["failed"])

    def test_retry_is_flagged(self):
        product = self.product(report_line(1000, 0.5))
        product["jobs"][0]["attempts"] = 2
        run.check_outputs(product, self.reference(report_line(1000, 0.5)))
        self.assertTrue(product["jobs"][0]["failed"])


if __name__ == "__main__":
    unittest.main()
