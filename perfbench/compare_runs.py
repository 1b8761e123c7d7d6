#!/usr/bin/env python3
"""Compares two sets of bench_suite results, metric by metric.

    python3 perfbench/compare_runs.py BASE_DIR NEW_DIR [--benchmark FILE]

Each directory holds result files saved by `perfbench/run.py --save DIR`;
traced runs are skipped. For every workload both sides ran and every
end_to_end metric of BENCHMARK.json, it prints each side's run count,
median and quartiles, the change of the median, and a verdict:

  ok          the new median is no worse than the base median by more
              than the metric's bound;
  regression  it is worse by more than the bound;
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, so the runs cannot tell. Two cases
              still resolve: every new run better than every base run is
              ok, and every new run worse with the median past the bound
              is a regression.

Exits 1 when any verdict is a regression, else 0.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_results(directory):
    """{workload: {metric: [values]}} from the untraced result files."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            result = json.load(f)
        if result.get("traced") or "workload" not in result:
            continue
        metrics = out.setdefault(result["workload"], {})
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def summarize(values):
    """(median, first quartile, third quartile), as statistics gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def relative(delta, base):
    if base == 0:
        return 0.0 if delta == 0 else float("inf")
    return delta / abs(base)


def verdict(base, new, bound, better):
    """ok, regression or unresolved for one metric (see the module doc)."""
    base_med, base_q1, base_q3 = summarize(base)
    new_med, new_q1, new_q3 = summarize(new)
    sign = 1 if better == "lower" else -1
    worse_by = relative(sign * (new_med - base_med), base_med)
    spread = max(relative(base_q3 - base_q1, base_med),
                 relative(new_q3 - new_q1, new_med))
    if better == "lower":
        all_better = max(new) < min(base)
        all_worse = min(new) > max(base)
    else:
        all_better = min(new) > max(base)
        all_worse = max(new) < min(base)
    if spread > bound:
        if all_better:
            return "ok"
        if all_worse and worse_by > bound:
            return "regression"
        return "unresolved"
    return "regression" if worse_by > bound else "ok"


def compare(base_dir, new_dir, benchmark):
    """One row per (workload, end-to-end metric) present on both sides."""
    base = load_results(base_dir)
    new = load_results(new_dir)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in base or workload not in new:
            continue
        for spec in benchmark["end_to_end"]:
            b = base[workload].get(spec["name"])
            n = new[workload].get(spec["name"])
            if not b or not n:
                continue
            rows.append({
                "workload": workload,
                "metric": spec["name"],
                "unit": spec["unit"],
                "bound": spec["bound"],
                "base": (len(b),) + summarize(b),
                "new": (len(n),) + summarize(n),
                "change": relative(summarize(n)[0] - summarize(b)[0],
                                   summarize(b)[0]),
                "verdict": verdict(b, n, spec["bound"], spec["better"]),
            })
    return rows


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir")
    parser.add_argument("new_dir")
    parser.add_argument("--benchmark",
                        default=os.path.join(root, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        benchmark = json.load(f)

    rows = compare(args.base_dir, args.new_dir, benchmark)
    if not rows:
        print("no workload has untraced results on both sides",
              file=sys.stderr)
        return 1
    side = "%3s %11s %11s %11s"
    print(("%-12s %-13s %6s | " + side + " | " + side + " | %8s  %s")
          % ("workload", "metric", "bound", "n", "base_med", "q1", "q3",
             "n", "new_med", "q1", "q3", "change", "verdict"))
    for r in rows:
        cells = ((r["workload"], r["metric"], r["bound"]) + r["base"] +
                 r["new"] + (100 * r["change"], r["verdict"]))
        print(("%-12s %-13s %6.2f | %3d %11.5g %11.5g %11.5g | "
               "%3d %11.5g %11.5g %11.5g | %+7.1f%%  %s") % cells)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
