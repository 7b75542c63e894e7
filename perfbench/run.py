#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source, then runs it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last stdout line is the result JSON:
      end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
  python3 perfbench/run.py [--seed N --seconds S --trace 0|1]
      Every workload in turn, then a table of every metric with its unit
      and each workload's operations attempted and failed.
  python3 perfbench/run.py --workload NAME --seeds K [--seed N] ...
      K runs on seeds N..N+K-1, then each metric's median and its
      interquartile range as a share of the median (the run-to-run spread).
  python3 perfbench/run.py --smoke
      Every workload at a tiny size, untraced and traced; fails when a run
      fails or a metric named in BENCHMARK.json is missing or has the
      wrong unit.
  python3 perfbench/run.py --write-reference
      Regenerates perfbench/reference/*.csv from the current code.

The library and the driver build into .bench_build/perfbench (CMake,
Release). README.md in this directory describes workloads and metrics.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
WORKLOADS = ["paper_contours", "surface_grid", "serve_mix"]
# One run must end within 180 s; leave room for the incremental build check.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def driver_args(workload, seed, seconds, trace, smoke=False):
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--data-dir", HERE,
            "--scratch-dir", os.path.join(ROOT, ".bench_build", "tmp")]
    return args + (["--smoke"] if smoke else [])


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tables = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(driver_args(workload, 1, 1, trace, True),
                                 stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
            label = "%s --trace %d" % (workload, trace)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append("%s: exit code %d" % (label, run.returncode))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append("%s: %d of %d operations failed"
                                % (label, result["failed"],
                                   result["attempted"]))
            metrics = result["metrics"]
            for m in tables[trace]:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("%s: metric %s missing"
                                    % (label, m["name"]))
                elif got["unit"] != m["unit"]:
                    problems.append("%s: metric %s in %s, expected %s"
                                    % (label, m["name"], got["unit"],
                                       m["unit"]))
            extra = set(metrics) - {m["name"] for m in tables[trace]}
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s"
                                % (label, ", ".join(sorted(extra))))
            print("%-30s attempted %d, failed %d, %d metrics"
                  % (label, result["attempted"], result["failed"],
                     len(metrics)))
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def run_all(args):
    rows = []
    failed = 0
    for workload in WORKLOADS:
        run = subprocess.run(
            driver_args(workload, args.seed, args.seconds, args.trace),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit("perfbench: %s failed to run" % workload)
        result = json.loads(lines[-1])
        failed += result["failed"]
        print("%s: attempted %d, failed %d"
              % (workload, result["attempted"], result["failed"]))
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
    print("%-18s %-32s %16s %s" % ("workload", "metric", "value", "unit"))
    for row in rows:
        print("%-18s %-32s %16.6g %s" % row)
    return 1 if failed else 0


def spread(args):
    values = {}
    for seed in range(args.seed, args.seed + args.seeds):
        run = subprocess.run(
            driver_args(args.workload, seed, args.seconds, args.trace),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit("perfbench: seed %d failed" % seed)
        print(lines[-1], flush=True)
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %d: %d operations failed" % (seed, result["failed"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print("%-32s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 \
            else (v[0], v[0], v[0])
        print("%-32s %14.6g %14.6g %14.6g %8.4f"
              % (name, med, q1, q3, (q3 - q1) / med if med else 0.0))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if args.write_reference:
        return subprocess.run([EXE, "--write-reference",
                               os.path.join(HERE, "reference")]).returncode
    if args.workload is None:
        return run_all(args)
    if args.seeds > 0:
        return spread(args)
    try:
        return subprocess.run(
            driver_args(args.workload, args.seed, args.seconds, args.trace),
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
