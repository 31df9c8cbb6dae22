#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout.  Configures and builds perfbench/,
which compiles the library from src/, into .bench_build/ at the checkout
root, then runs one workload (oneshot, rebind or sweep).  The program's
summary and its last-line JSON result go to stdout; build output goes to
stderr.  A traced run (--trace 1) also leaves a chrome trace and a metrics
document in .bench_build/traces/.

Exits non-zero without printing a result if the build or the run fails,
or if the result does not carry exactly the metrics BENCHMARK.json
declares for the run's mode.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, env=env, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["oneshot", "rebind", "sweep"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    try:
        exe = build()
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode if run.returncode > 0 else 1

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        got = list(json.loads(lines[-1])["metrics"])
        want = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        sys.stderr.write(run.stdout)
        print(f"perfbench: unreadable result or BENCHMARK.json: {e}",
              file=sys.stderr)
        return 1
    if sorted(got) != sorted(want):
        sys.stderr.write(run.stdout)
        print("perfbench: result metrics differ from BENCHMARK.json: "
              f"{sorted(set(got) ^ set(want))}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
