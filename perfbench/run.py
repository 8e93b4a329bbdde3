#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload resnet50_b1 --seed 1 \
        --seconds 30 --trace 0

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build/ (the library sources under src/ plus perfbench.cpp);
later calls only let the build tool confirm it is up to date. Build
output goes to stderr. The program's human-readable lines are echoed,
and the last stdout line is its JSON result. With --trace 1 the span
trace it wrote is validated with scripts/check_trace.py; a trace the
checker rejects makes the run incorrect.

Exit status: 0 when the run's output checks pass, non-zero otherwise
(including when the library sources or the build are missing).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "perfbench")
CHECK_TRACE = os.path.join(ROOT, "scripts", "check_trace.py")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "nn", "graph.h")):
        die("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", JOBS])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except subprocess.TimeoutExpired:
            die("build timed out")
        if proc.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        die("--seed must be >= 0 and --seconds in (0, 120]")

    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        die("benchmark run timed out")
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        die(f"no JSON result (exit {proc.returncode})")
    if not isinstance(result.get("metrics"), dict) or not result["metrics"]:
        die("the run reported no metrics")

    ok = proc.returncode == 0 and result.get("correct") is True
    if args.trace == "1":
        trace = os.path.join(OUT, f"trace_{args.workload}.json")
        if not os.path.isfile(CHECK_TRACE):
            print("# trace check skipped: scripts/check_trace.py missing")
            ok = False
        else:
            chk = subprocess.run([sys.executable, CHECK_TRACE, trace,
                                  "--require", "bench."],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=120)
            print("# " + chk.stdout.strip().replace("\n", "\n# "))
            ok = ok and chk.returncode == 0
    result["correct"] = ok
    print(json.dumps(result))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
