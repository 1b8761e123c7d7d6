#!/usr/bin/env python3
"""Perf regression gate: diff RELGRAPH_JSON bench runs against the
checked-in baseline and fail on latency regressions.

Usage:
    python3 bench/diff_bench.py --run build/smoke_1.json [smoke_2.json ...] \
        [--baseline BENCH_baseline.json] [--baseline-key ci_smoke] \
        [--tolerance 0.25] [--metric time_s]

The baseline file is BENCH_baseline.json at the repo root. The CI job runs
the smoke-scale bench_fig6a three times (RELGRAPH_QUERIES=4,
RELGRAPH_SCALE=0.2) and gates the per-record *minimum* wall-clock against
the `ci_smoke` record list, which was captured the same way (min of three
runs). Min-of-N is the noise treatment: scheduler interference only ever
adds time, so the minimum is the stable estimator a single run is not.
Each merged record comes whole from its fastest run, so its parts never
exceed its total.

Records are matched on (experiment, label, context); a run record more
than `tolerance` (default 25%) slower than its baseline fails the job, as
does a baseline record missing from the run (a silently dropped benchmark
is a regression too). Counter metrics (statements, expansions, visited)
are compared exactly and across every run: they are deterministic, so
*any* drift is a behaviour change, not noise.

With --normalize (what CI uses), each record's latency is divided by the
total latency of its own run before comparison, so a uniformly faster or
slower machine cancels out: the gate then catches *structural* regressions
(one algorithm/graph-size cell slowing relative to the rest) across runner
classes, at the cost of missing a perfectly uniform slowdown. Without the
flag, absolute wall-clock is compared — the right mode when the run and
the baseline come from the same machine (local development).

The tolerance can also be set via RELGRAPH_BENCH_TOLERANCE. Absolute
wall-clock baselines are machine-specific — refresh the `ci_smoke` block
whenever the CI runner generation changes.

Rolling-window mode (--rolling-dir DIR [--window N] [--update-rolling]):
instead of the checked-in block, the baseline is built from the previous
runs stored in DIR (CI persists it in an actions cache keyed by runner
label, so the window always comes from the same runner class and never
needs the manual refresh the static baseline does). Record structure and
the deterministic counters come from the *newest* stored run; the gated
latency is the per-record minimum across the whole window (the same
noise treatment as min-of-N within one build, stretched across builds).
With --update-rolling, a PASSING comparison appends this build's merged
records as run-<epoch>.json and prunes the window to N entries — failing
runs never poison the baseline. When DIR is empty (first run on a fresh
cache) the comparison falls back to --baseline/--baseline-key and the
window is seeded. To reset after an intentional perf/counter change,
bump the cache key in the workflow.
"""

import argparse
import glob as globmod
import json
import os
import sys
import time

EXACT_METRICS = (
    "statements", "expansions", "visited", "found", "total",
    # Resilience counters: healthy bench fleets must not retry, trip
    # breakers, fail over, hedge, or shed — a nonzero value (or any drift
    # from the checked-in baseline) is a robustness regression.
    "retries", "failures", "breaker_opens", "failovers", "hedges", "sheds",
)


def record_key(rec):
    ctx = rec.get("context", {})
    ctx_key = tuple(sorted((k, v) for k, v in ctx.items()))
    return (rec.get("experiment", "?"), rec.get("label", "?"), ctx_key)


def fmt_key(key):
    experiment, label, ctx = key
    ctx_s = ", ".join(f"{k}={v:g}" for k, v in ctx)
    return f"{experiment} / {label} ({ctx_s})"


def merge_runs(run_files, metric, failures):
    """Per-record merge across runs: each record is taken whole from the run
    with the lowest `metric`, so its parts (pe_s, f_s, ...) come from the
    same run as its total. Exact metrics must agree across every run."""
    merged = {}
    for path in run_files:
        with open(path) as f:
            run = json.load(f)
        for rec in run:
            key = record_key(rec)
            metrics = rec.get("metrics", {})
            best = merged.get(key)
            if best is None:
                merged[key] = dict(metrics)
                continue
            for m in EXACT_METRICS:
                if m in best and m in metrics and best[m] != metrics[m]:
                    failures.append(
                        f"{fmt_key(key)}: {m} differs between runs "
                        f"({best[m]:g} vs {metrics[m]:g}) — deterministic "
                        f"counters must not vary")
            if metric in metrics and (metric not in best
                                      or metrics[metric] < best[metric]):
                merged[key] = dict(metrics)
    return merged


def rolling_run_files(rolling_dir):
    """Window files, oldest first (named run-<epoch>.json)."""
    files = globmod.glob(os.path.join(rolling_dir, "run-*.json"))
    return sorted(files, key=lambda p: os.path.basename(p))


def load_rolling_baseline(rolling_dir, metric):
    """Baseline record list from the stored window: the newest run gives
    the record set and the deterministic counters; `metric` is the
    per-record minimum across every run in the window."""
    files = rolling_run_files(rolling_dir)
    if not files:
        return None, 0
    with open(files[-1]) as f:
        newest = json.load(f)
    best = {}
    for path in files:
        with open(path) as f:
            for rec in json.load(f):
                key = record_key(rec)
                t = rec.get("metrics", {}).get(metric)
                if t is None:
                    continue
                best[key] = t if key not in best else min(best[key], t)
    for rec in newest:
        key = record_key(rec)
        if key in best and metric in rec.get("metrics", {}):
            rec["metrics"][metric] = best[key]
    return newest, len(files)


def update_rolling(rolling_dir, run_by_key, window):
    """Appends this build's merged records and prunes to `window` files."""
    os.makedirs(rolling_dir, exist_ok=True)
    records = []
    for (experiment, label, ctx), metrics in sorted(run_by_key.items()):
        records.append({"experiment": experiment, "label": label,
                        "context": dict(ctx), "metrics": metrics})
    name = os.path.join(rolling_dir, "run-%013d.json" % int(time.time() * 1e3))
    with open(name, "w") as f:
        json.dump(records, f, indent=1)
    files = rolling_run_files(rolling_dir)
    for stale in files[:-window] if window > 0 else []:
        os.remove(stale)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", required=True, nargs="+",
                        help="bench JSON file(s) from this build; latency is "
                             "gated on the per-record minimum across them")
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--baseline-key", default="ci_smoke",
                        help="top-level key in the baseline file holding the "
                             "record list to diff against")
    parser.add_argument("--rolling-dir", default=None,
                        help="directory of previous runs (run-*.json); when "
                             "it holds any, they replace the checked-in "
                             "baseline (see module docstring)")
    parser.add_argument("--window", type=int, default=5,
                        help="rolling-window size kept by --update-rolling")
    parser.add_argument("--update-rolling", action="store_true",
                        help="on PASS, append this build's merged records to "
                             "--rolling-dir and prune to --window entries")
    parser.add_argument("--metric", default="time_s",
                        help="latency metric to gate on")
    parser.add_argument("--normalize", action="store_true",
                        help="compare per-record latency *shares* of the run "
                             "total instead of absolute seconds (machine-"
                             "independent; used by CI)")
    parser.add_argument("--tolerance", type=float,
                        default=float(os.environ.get(
                            "RELGRAPH_BENCH_TOLERANCE", "0.25")),
                        help="allowed fractional latency regression")
    args = parser.parse_args()

    baseline = None
    from_rolling = False
    baseline_desc = f"checked-in '{args.baseline_key}'"
    if args.rolling_dir:
        baseline, window_runs = load_rolling_baseline(args.rolling_dir,
                                                      args.metric)
        if baseline is not None:
            from_rolling = True
            baseline_desc = (f"rolling window ({window_runs} prior run(s) in "
                             f"{args.rolling_dir})")
        else:
            print(f"diff_bench: rolling dir {args.rolling_dir} is empty — "
                  f"falling back to the checked-in baseline, then seeding "
                  f"the window")
    if baseline is None:
        with open(args.baseline) as f:
            baseline_doc = json.load(f)
        baseline = baseline_doc.get(args.baseline_key)
        if baseline is None:
            print(f"FAIL: baseline file has no '{args.baseline_key}' "
                  f"record list")
            return 1

    failures = []
    run_by_key = merge_runs(args.run, args.metric, failures)

    def normalizer(records):
        total = sum(m.get(args.metric, 0.0) for m in records)
        return total if total > 0 else 1.0

    run_norm = base_norm = 1.0
    unit = "s"
    if args.normalize:
        run_norm = normalizer(list(run_by_key.values()))
        base_norm = normalizer([r.get("metrics", {}) for r in baseline])
        unit = " (share)"
    lines = []
    for base_rec in baseline:
        key = record_key(base_rec)
        run_m = run_by_key.get(key)
        if run_m is None:
            failures.append(f"missing from run: {fmt_key(key)}")
            continue
        base_m = base_rec.get("metrics", {})

        for metric in EXACT_METRICS:
            if metric in base_m and metric in run_m:
                if base_m[metric] != run_m[metric]:
                    failures.append(
                        f"{fmt_key(key)}: {metric} changed "
                        f"{base_m[metric]:g} -> {run_m[metric]:g} "
                        f"(deterministic counter; must be identical)")

        base_t = base_m.get(args.metric)
        run_t = run_m.get(args.metric)
        if base_t is None or run_t is None:
            failures.append(f"{fmt_key(key)}: metric {args.metric} absent")
            continue
        base_v = base_t / base_norm
        run_v = run_t / run_norm
        ratio = run_v / base_v if base_v > 0 else float("inf")
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(
                f"{fmt_key(key)}: {args.metric} {base_v:.6f}{unit} -> "
                f"{run_v:.6f}{unit} "
                f"({ratio:.2f}x, tolerance {1.0 + args.tolerance:.2f}x)")
        lines.append(f"  {fmt_key(key)}: {base_v:.6f}{unit} -> "
                     f"{run_v:.6f}{unit} ({ratio:.2f}x) {verdict}")

    # Symmetric coverage check: a run record the baseline does not know is
    # gated against nothing, and under --normalize it silently dilutes
    # every other record's share. Against the checked-in baseline that
    # fails the job until the block is refreshed. Against the rolling
    # window it is only a notice: on PASS the window absorbs the new
    # record (--update-rolling) and gates it from the next run onward —
    # newly added benchmarks self-seed instead of failing forever.
    base_keys = {record_key(r) for r in baseline}
    for key in run_by_key:
        if key not in base_keys:
            if from_rolling:
                print(f"  note: new record {fmt_key(key)} — ungated this "
                      f"run; the rolling window absorbs it on PASS")
            else:
                failures.append(
                    f"missing from baseline: {fmt_key(key)} (refresh the "
                    f"'{args.baseline_key}' block to cover it)")

    print(f"diff_bench: {len(baseline)} baseline record(s) from "
          f"{baseline_desc}, {len(args.run)} run file(s), tolerance "
          f"+{args.tolerance:.0%} on {args.metric} (min across runs"
          f"{', normalized to run totals' if args.normalize else ''})")
    for line in lines:
        print(line)
    if failures:
        print(f"\nFAIL ({len(failures)} issue(s)):")
        for f_line in failures:
            print(f"  {f_line}")
        return 1
    if args.update_rolling and args.rolling_dir:
        update_rolling(args.rolling_dir, run_by_key, args.window)
        print(f"rolling window updated "
              f"({len(rolling_run_files(args.rolling_dir))} run(s) kept)")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
