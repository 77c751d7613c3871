#!/usr/bin/env python3
"""Runs workloads over several seeds and tabulates the end-to-end metrics.

    python3 e2ebench/spread.py --workloads proxy-steady check-storm --seeds 1-10

For each workload and end-to-end metric of BENCHMARK.json it prints the
median, the quartile spread (Q3 - Q1, from statistics.quantiles(n=4)) as
a share of the median, and that metric's bound; a spread above a third
of its bound is marked. Runs flagged invalid in their run record (the
load generator fell behind) are reported and left out. The markdown
table it prints is the replacement for hand-pasted result tables.
--from-results skips running and reads the saved results in
.bench_build/results instead.
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    """Runs one workload; returns what run.py saves: the result under
    "result", plus the run record ("record") and the machine record."""
    done = subprocess.run([sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    saved = {"seed": seed, "result": json.loads(lines[-1])}
    for line in lines[:-1]:
        try:
            saved.update(json.loads(line))
        except ValueError:
            pass
    return saved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--from-results", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    print("| workload | metric | unit | median | (Q3-Q1)/median | bound | runs |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        runs = []
        if args.from_results:
            pattern = os.path.join(ROOT, ".bench_build", "results",
                                   "%s-seed*-trace%d.json" % (workload, args.trace))
            for path in sorted(glob.glob(pattern)):
                with open(path) as f:
                    runs.append(json.load(f))
        else:
            for seed in seeds_of(args.seeds):
                saved = run_once(workload, seed, bench["run_seconds"], args.trace)
                if saved is None:
                    print("%s seed %d: failed run" % (workload, seed), file=sys.stderr)
                else:
                    runs.append(saved)
        results = []
        for saved in runs:
            if not saved["result"]["correct"]:
                print("%s seed %s: failed correctness checks" % (workload, saved["seed"]),
                      file=sys.stderr)
            # A run whose generator fell behind measured the generator.
            if not saved.get("record", {}).get("valid", True):
                print("%s seed %s: flagged invalid, left out" % (workload, saved["seed"]),
                      file=sys.stderr)
                continue
            results.append(saved["result"])
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in results
                      if metric["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = metric.get("bound")
            mark = " !" if bound is not None and spread > bound / 3 else ""
            print("| %s | %s | %s | %.6g | %.3f%s | %s | %d |" % (
                workload, metric["name"], metric["unit"], statistics.median(values),
                spread, mark, bound if bound is not None else "-", len(values)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
