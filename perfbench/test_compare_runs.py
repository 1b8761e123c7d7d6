"""Tests for compare_runs.py: python3 -m unittest discover perfbench"""

import json
import os
import tempfile
import unittest

import compare_runs

BENCHMARK = {
    "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def write_results(directory, workload, metric, values, traced=False):
    for i, v in enumerate(values):
        path = os.path.join(directory, "%s-%s-%d-%d.json"
                            % (workload, metric, traced, i))
        with open(path, "w") as f:
            json.dump({"workload": workload, "seed": i, "traced": traced,
                       "correct": True, "attempted": 10, "failed": 0,
                       "metrics": {metric: {"value": v, "unit": "ms"}}}, f)


class VerdictTest(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(compare_runs.verdict(
            [10.0, 10.1, 9.9, 10.0, 10.05], [10.5, 10.6, 10.4, 10.5, 10.55],
            0.1, "lower"), "ok")

    def test_worse_median_past_bound_is_regression(self):
        self.assertEqual(compare_runs.verdict(
            [10.0, 10.1, 9.9, 10.0, 10.05], [12.0, 12.1, 11.9, 12.0, 12.05],
            0.1, "lower"), "regression")

    def test_higher_is_better_direction(self):
        base = [100.0, 101.0, 99.0, 100.0, 100.5]
        self.assertEqual(compare_runs.verdict(
            base, [80.0, 81.0, 79.0, 80.0, 80.5], 0.1, "higher"),
            "regression")
        self.assertEqual(compare_runs.verdict(
            base, [120.0, 121.0, 119.0, 120.0, 120.5], 0.1, "higher"), "ok")

    def test_wide_overlapping_spread_is_unresolved(self):
        self.assertEqual(compare_runs.verdict(
            [8.0, 10.0, 12.0, 9.0, 11.0], [9.0, 11.5, 13.0, 10.0, 12.0],
            0.1, "lower"), "unresolved")

    def test_wide_spread_resolves_when_every_run_is_better(self):
        self.assertEqual(compare_runs.verdict(
            [8.0, 10.0, 12.0, 9.0, 11.0], [4.0, 5.0, 6.0, 4.5, 5.5],
            0.1, "lower"), "ok")

    def test_wide_spread_resolves_when_every_run_is_much_worse(self):
        self.assertEqual(compare_runs.verdict(
            [8.0, 10.0, 12.0, 9.0, 11.0], [16.0, 20.0, 24.0, 18.0, 22.0],
            0.1, "lower"), "regression")

    def test_single_run_per_side(self):
        self.assertEqual(compare_runs.verdict([10.0], [10.5], 0.1, "lower"),
                         "ok")
        self.assertEqual(compare_runs.verdict([10.0], [11.5], 0.1, "lower"),
                         "regression")


class CompareTest(unittest.TestCase):
    def test_reads_directories_and_skips_traced_runs(self):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as new:
            write_results(base, "w1", "p50_ms", [10.0, 10.1, 9.9])
            write_results(new, "w1", "p50_ms", [10.0, 10.2, 9.8])
            # A traced run is never an end-to-end sample.
            write_results(new, "w1", "p50_ms", [50.0], traced=True)
            # Only one side ran w2: no row.
            write_results(base, "w2", "p50_ms", [1.0])
            rows = compare_runs.compare(base, new, BENCHMARK)
        self.assertEqual(len(rows), 1)
        row = rows[0]
        self.assertEqual((row["workload"], row["metric"]), ("w1", "p50_ms"))
        self.assertEqual(row["new"][0], 3)
        self.assertAlmostEqual(row["new"][1], 10.0)
        self.assertEqual(row["verdict"], "ok")


if __name__ == "__main__":
    unittest.main()
