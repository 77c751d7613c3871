#!/usr/bin/env python3
"""Builds and runs the Bifrost end-to-end benchmark.

    python3 e2ebench/run.py --workload proxy-steady --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (e2ebench/CMakeLists.txt, which compiles ../src) into
.bench_build/cmake; later runs only rebuild what changed. Scratch files
(journals, records, Chrome traces) go to .bench_build/run and every
result is also saved under .bench_build/results.

The last line of standard output is the result JSON:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Earlier lines hold the run record and the machine record.
"""
import argparse
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RUN_DIR = os.path.join(ROOT, ".bench_build", "run")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "bifrost_e2ebench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: no Bifrost sources at %s/src; nothing to benchmark" % ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "e2ebench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "bifrost_e2ebench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("e2ebench: build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def machine_record():
    compiler = "unknown"
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    try:
                        compiler = subprocess.run([path, "--version"], stdout=subprocess.PIPE,
                                                  text=True).stdout.splitlines()[0]
                    except (OSError, IndexError):
                        compiler = path
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            match = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            if match:
                cpu = match.group(1)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            revision = done.stdout.strip()
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu, "compiler": compiler, "build_type": BUILD_TYPE,
            "git_revision": revision, "kernel": platform.release()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", RUN_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        log("e2ebench: benchmark exited with %d" % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("e2ebench: last line is not JSON")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("e2ebench: result has unexpected keys")
        return 1
    machine = machine_record()
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"machine": machine}))
    saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "machine": machine, "result": result}
    for line in lines[:-1]:
        try:
            saved.update(json.loads(line))
        except ValueError:
            pass
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(saved, f, indent=1)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
