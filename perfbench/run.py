#!/usr/bin/env python3
"""Builds and runs the cegraph benchmark (see perfbench/README.md).

One run (what BENCHMARK.json's command executes):

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

builds the library and the perfbench binary from the checkout's sources
(CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs one workload
and passes its output through: the last stdout line is the JSON result.

Repeated runs in fresh processes, with each end-to-end metric's median,
quartiles and spread (IQR / median) against the bound in BENCHMARK.json:

    python3 perfbench/run.py repeat --runs 10 --seconds 10 [--workloads a,b]

A spread wider than its bound is flagged and makes the command exit 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_hot", "serve_churn", "plan_dp"]
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no library sources (src/) next to perfbench/")
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_once(args):
    binary = build()
    work = os.path.join(build_dir(), "work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


def repeat(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    flagged = False
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=RUN_TIMEOUT_S + 900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
                flagged = True
                continue
            result = json.loads(lines[-1])
            shares.add((result["failed"], result["attempted"])
                       if result["failed"] else 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, failed shares {sorted(shares)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  FLAG: wider than bound"
                flagged = True
            print(f"  {m['name']:32} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.3f} {m['bound']:>6}{flag}")
    return 1 if flagged else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "repeat":
        p = argparse.ArgumentParser(prog="run.py repeat")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--seconds", type=int, default=0,
                       help="per run; default: BENCHMARK.json run_seconds")
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--workloads", default="")
        return repeat(p.parse_args(sys.argv[2:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return run_once(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
