#!/usr/bin/env python3
"""Simulator benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mcf_das --seed 1 --seconds 15 --trace 0

Builds the simulator library, the benchmark command and the component
micro-benchmarks from source into .bench_build/ (the first call takes a
minute or more), then runs one workload and relays its report. The last
line of standard output is the benchmark's JSON result. With --trace 1
the component micro-benchmarks (bench/micro_components.cc) run first;
their google-benchmark JSON is kept in .bench_build/micro_components.json
and summarised in the report. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# Every run must end well inside the caller's 180-second limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    """Run cmd with its output appended to log; False on failure."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(min(4, os.cpu_count() or 1))
    ok = (os.path.exists(os.path.join(BUILD, "Makefile")) or
          run_logged(["cmake", "-S", HERE, "-B", BUILD], log,
                     BUILD_TIMEOUT_S))
    ok = ok and run_logged(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
         "micro_components"], log, max(1, deadline - time.monotonic()))
    if not ok:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        fail(f"build failed (log: {log})")


def micro_components():
    """Run the component micro-benchmarks and summarise them."""
    out = os.path.join(BUILD, "micro_components.json")
    cmd = [os.path.join(BUILD, "micro_components"),
           "--benchmark_format=json", "--benchmark_min_time=0.05"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=60)
    except subprocess.TimeoutExpired:
        fail("micro_components timed out")
    if res.returncode != 0:
        fail("micro_components failed")
    with open(out, "w") as f:
        f.write(res.stdout)
    report = json.loads(res.stdout)
    for b in report["benchmarks"]:
        print(f"micro {b['name']} {b['real_time']:.6g} {b['time_unit']} "
              f"({b['iterations']} iterations)")
    print(f"micro_components JSON: {os.path.relpath(out, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="mcf_das, cactus_das, mix_das or fig7_sweep")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--instructions", type=int,
                    help="per-core budget (self-test only)")
    ap.add_argument("--inject", help="self-test fault (see selftest.py)")
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    start = time.monotonic()
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    seconds = args.seconds
    if args.trace:
        micro_components()
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
        # The micro-benchmarks count against the measurement window.
        seconds = max(1.0, seconds - (time.monotonic() - start))
    cmd += ["--seconds", f"{seconds:.3f}"]
    if args.instructions:
        cmd += ["--instructions", str(args.instructions)]
    if args.inject:
        cmd += ["--inject", args.inject]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
