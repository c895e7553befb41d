#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length.

    python3 perfbench/smoke.py

Run from the root of a checkout. For each workload and for the untraced and
the traced run, asserts that the run exits 0 within its budget, reports every
metric BENCHMARK.json names for that kind of run, and has no failed checks.
"""

import json
import subprocess
import sys
import time

BUDGET = 180  # seconds per run, once the binary is built


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    expected = {
        "0": {m["name"] for m in bench["end_to_end"]},
        "1": {m["name"] for m in bench["per_layer"]},
    }
    # Build once up front so the budget below measures runs, not the build.
    subprocess.run(["python3", "perfbench/run.py", "--workload", "hot",
                    "--seed", "0", "--seconds", "1", "--trace", "0"],
                   check=True, capture_output=True)
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            start = time.monotonic()
            run = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", trace],
                capture_output=True, text=True, timeout=BUDGET + 30)
            took = time.monotonic() - start
            name = f"{workload} --trace {trace}"
            if run.returncode != 0:
                problems.append(f"{name}: exit {run.returncode}: "
                                f"{run.stderr.strip()[-500:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            missing = expected[trace] - set(result["metrics"])
            if missing:
                problems.append(f"{name}: missing {sorted(missing)}")
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{name}: {result['failed']} of "
                                f"{result['attempted']} checks failed")
            if took > BUDGET:
                problems.append(f"{name}: took {took:.0f} s")
            print(f"{name}: {took:.1f} s, {result['attempted']} checks, "
                  f"{len(result['metrics'])} metrics", flush=True)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
