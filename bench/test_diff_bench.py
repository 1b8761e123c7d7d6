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


def timed(label, time_s):
    return {"experiment": "labels", "label": label, "context": {"n": 400},
            "metrics": {"time_s": time_s}}


class NormalizeTest(unittest.TestCase):
    """--normalize against a baseline whose `build` record holds most of
    the time, the shape of the label series."""

    BASE = {"build": 1.0, "fem": 0.004, "serve": 0.00004, "stale": 0.004}

    def gate(self, factors, tolerance=0.25):
        baseline = [timed(k, v) for k, v in self.BASE.items()]
        run = {diff_bench.record_key(timed(k, v * factors.get(k, 1.0))):
               timed(k, v * factors.get(k, 1.0))["metrics"]
               for k, v in self.BASE.items()}
        failures = []
        scale = diff_bench.run_scale(baseline, run, "time_s")
        diff_bench.compare_records(baseline, run, "time_s", tolerance,
                                   scale, failures)
        return failures

    def test_dominant_record_slowing_2x_is_caught(self):
        failures = self.gate({"build": 2.0})
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("labels / build", failures[0])
        self.assertIn("2.00x", failures[0])

    def test_dominant_record_speeding_up_2x_flags_nothing(self):
        self.assertEqual(self.gate({"build": 0.5}, tolerance=0.6), [])
        self.assertEqual(self.gate({"build": 0.5}), [])

    def test_uniform_slowdown_cancels_out(self):
        self.assertEqual(
            self.gate({k: 3.0 for k in self.BASE}), [])


if __name__ == "__main__":
    unittest.main()
