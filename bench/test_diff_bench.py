"""Tests for diff_bench.py: python3 -m unittest discover bench"""

import json
import os
import tempfile
import unittest

import diff_bench


def record(time_s, pe_s, sc_s, fpr_s, statements=10):
    return {"experiment": "fig6a", "label": "BDJ/NSQL",
            "context": {"n": 1600},
            "metrics": {"time_s": time_s, "pe_s": pe_s, "sc_s": sc_s,
                        "fpr_s": fpr_s, "statements": statements}}


class MergeRunsTest(unittest.TestCase):
    def merge(self, *runs):
        with tempfile.TemporaryDirectory() as d:
            paths = []
            for i, run in enumerate(runs):
                path = os.path.join(d, "run_%d.json" % i)
                with open(path, "w") as f:
                    json.dump(run, f)
                paths.append(path)
            failures = []
            merged = diff_bench.merge_runs(paths, "time_s", failures)
        return merged, failures

    def test_no_part_exceeds_its_total(self):
        # The slow run has the larger parts; the fast run wins the total.
        merged, failures = self.merge([record(4.0, 3.66, 0.2, 0.1)],
                                      [record(2.34, 2.0, 0.2, 0.1)])
        self.assertEqual(failures, [])
        (metrics,) = merged.values()
        self.assertEqual(metrics["time_s"], 2.34)
        for part in ("pe_s", "sc_s", "fpr_s"):
            self.assertLessEqual(metrics[part], metrics["time_s"], part)
        self.assertEqual(metrics["pe_s"], 2.0)

    def test_record_comes_whole_from_the_fastest_run(self):
        merged, _ = self.merge([record(2.0, 1.0, 0.5, 0.25)],
                               [record(3.0, 2.9, 0.05, 0.01)],
                               [record(2.5, 2.4, 0.05, 0.01)])
        (metrics,) = merged.values()
        self.assertEqual(metrics, record(2.0, 1.0, 0.5, 0.25)["metrics"])

    def test_counter_drift_between_runs_fails(self):
        _, failures = self.merge([record(2.0, 1.0, 0.5, 0.25, statements=10)],
                                 [record(1.0, 0.5, 0.2, 0.1, statements=11)])
        self.assertEqual(len(failures), 1)
        self.assertIn("statements differs", failures[0])


if __name__ == "__main__":
    unittest.main()
