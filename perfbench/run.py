#!/usr/bin/env python3
"""Builds bench_suite from source and runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--save DIR]

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); databases, traces and result files go to
.bench_out. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end_to_end metrics of
BENCHMARK.json with --trace 0, its per_layer metrics with --trace 1 (that
run also writes .bench_out/trace-<workload>-<seed>.json). --save DIR also
keeps the full result, every metric, in DIR for compare_runs.py.

Exits 1, without the JSON line, when the build or the run fails; exits 1
after printing it when an answer was wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A 16 s run takes about 20 s; a hung one is stopped before 3 minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, builds bench_suite, and returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_suite",
                  "-j", jobs])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "bench_suite")


def run_suite(cmd):
    """Runs bench_suite with its output passed through; returns its code."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("bench_suite did not finish within %d s" % RUN_TIMEOUT_S)
    return None


def result_line(result, benchmark, traced):
    """The JSON object printed as the last line: op counts and the metrics
    BENCHMARK.json lists for this kind of run."""
    metrics = {}
    for spec in benchmark["per_layer" if traced else "end_to_end"]:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("bench_suite did not report " + spec["name"])
        if got["unit"] != spec["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(result_path, save_dir, workload, seed, traced):
    os.makedirs(save_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, traced)
    n = 0
    while os.path.exists(os.path.join(save_dir, "%s-%d.json" % (stem, n))):
        n += 1
    shutil.copyfile(result_path,
                    os.path.join(save_dir, "%s-%d.json" % (stem, n)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", metavar="DIR")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        fail("unknown workload " + args.workload)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(
        out_dir, "result-%s-%d-%d.json" % (args.workload, args.seed,
                                           os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--work-dir", out_dir,
           "--out", result_path]
    if args.trace:
        cmd += ["--trace", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    code = run_suite(cmd)
    if code not in (0, 1) or not os.path.exists(result_path):
        fail("bench_suite exited with code %s" % code)
    with open(result_path) as f:
        result = json.load(f)
    if args.save:
        save(result_path, args.save, args.workload, args.seed, args.trace)
    os.remove(result_path)

    print(json.dumps(result_line(result, benchmark, args.trace)))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
