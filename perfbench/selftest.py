#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

Run from the root of a checkout (takes about a minute after the build):

    python3 perfbench/selftest.py

At tiny instruction budgets it checks that

- every workload prints every end-to-end metric (--trace 0) and every
  per-layer metric (--trace 1) named in BENCHMARK.json, by name with its
  unit, both on a report line and in the final JSON object, and passes
  its correctness checks;
- an injected fault (the third execution simulates other inputs) is
  caught by the statistics-digest check and counted in failed_ratio;
- mcf_das at bench_engine's budget (4 M instructions per core, seed 42)
  retires in 2811222 CPU cycles, the cpu_cycles BENCH_engine.json
  records: the benchmark drives the same model as bench_engine.

Exits non-zero at the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = {"mcf_das": 200000, "cactus_das": 200000, "mix_das": 100000,
        "fig7_sweep": 50000}
BENCH_ENGINE_MCF_CYCLES = 2811222


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def bench(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           *extra]
    res = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                         timeout=300)
    if res.returncode != 0:
        fail(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    lines = res.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(workload, trace, specs, lines, result):
    printed = {}
    for line in lines:
        m = re.match(r"metric (\S+) (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = m.group(3)
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if printed.get(name) != unit:
            fail(f"{workload} trace {trace}: no report line for {name} "
                 f"in {unit}")
        got = result["metrics"].get(name)
        if not got or got["unit"] != unit or \
                not isinstance(got["value"], (int, float)):
            fail(f"{workload} trace {trace}: JSON lacks {name} in {unit}")
    if set(result["metrics"]) != {s["name"] for s in specs}:
        fail(f"{workload} trace {trace}: unexpected JSON metrics")
    if printed.get("failed_ratio") != "fraction":
        fail(f"{workload} trace {trace}: no failed_ratio line")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{workload} trace {trace}: correctness checks failed: "
             f"{[l for l in lines if l.startswith('FAILED')]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        budget = ["--instructions", str(TINY[name])]
        for trace, specs in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines, result = bench(name, trace, *budget)
            check_metrics(name, trace, specs, lines, result)
            print(f"selftest: {name} trace {trace}: "
                  f"{len(specs)} metrics, {result['attempted']} runs ok")

    lines, result = bench("mcf_das", 0, "--instructions", "200000",
                          "--inject", "digest")
    ratio = [l for l in lines if l.startswith("metric failed_ratio ")]
    if result["correct"] or result["failed"] < 1 or not ratio or \
            float(ratio[0].split()[2]) <= 0.0:
        fail("an injected digest mismatch did not show in failed_ratio")
    print(f"selftest: injected fault counted: {ratio[0]}")

    lines, _ = bench("mcf_das", 0, "--instructions", "4000000", "--seed",
                     "42")
    cycles = [l for l in lines if l.startswith("simulated cpu_cycles ")]
    if not cycles or int(cycles[0].split()[2]) != BENCH_ENGINE_MCF_CYCLES:
        fail(f"mcf_das at 4M/seed 42: {cycles}, want "
             f"{BENCH_ENGINE_MCF_CYCLES}")
    print(f"selftest: bench_engine model reproduced: {cycles[0]}")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
