#!/usr/bin/env python3
"""Run one workload of the fusion-query benchmark.

    python3 perfbench/run.py --workload cold|hot|churn --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark binary from source
with dune (into .bench_build/), generates the seeded world into a temporary
directory under .bench_build/, serves it, and relays the binary's report:
its last line of standard output is the result JSON. Exits non-zero, with a
message naming the phase, when the build, the world generation or the run
fails or overruns its time budget.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "dune", "default", "perfbench", "perfbench.exe")
WORKLOADS = ("cold", "hot", "churn")

BUILD_BUDGET = 850  # seconds; only the first run in a checkout compiles
RUN_BUDGET = 170  # seconds for generation plus the measured run


def fail(phase, message):
    print(f"perfbench: {phase}: {message}", file=sys.stderr)
    sys.exit(1)


def on_signal(signum, _frame):
    # Turn termination into SystemExit so cleanup below still runs.
    sys.exit(128 + signum)


def call(phase, argv, timeout, env=None, capture=False):
    """Runs argv to completion; kills it and fails past the timeout."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(phase, f"did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(phase, f"exited with code {proc.returncode}")
    return out


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("build", f"{ROOT} is not a checkout of the repository "
                      "(no dune-project and lib/)")
    if shutil.which("dune") is None:
        fail("build", "dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    os.makedirs(BUILD, exist_ok=True)
    call("build",
         ["dune", "build", "--root", ".", "--build-dir",
          os.path.join(BUILD, "dune"), "--display", "quiet",
          "./perfbench/perfbench.exe"],
         BUILD_BUDGET, env=env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("arguments", "--seconds must be at least 1")
    signal.signal(signal.SIGTERM, on_signal)

    build()
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    world = os.path.join(BUILD, "tmp",
                         f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        start = time.monotonic()
        call("generate",
             [EXE, "gen", "--workload", args.workload, "--seed",
              str(args.seed), "--dir", world],
             RUN_BUDGET)
        left = RUN_BUDGET - (time.monotonic() - start)
        out = call("run",
                   [EXE, "run", "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds),
                    "--trace", args.trace, "--dir", world],
                   left, capture=True)
    finally:
        shutil.rmtree(world, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("run", "the last line of output is not the result JSON")
    if not isinstance(result, dict) or "metrics" not in result:
        fail("run", "the result JSON has no metrics")
    print(out, end="")


if __name__ == "__main__":
    main()
