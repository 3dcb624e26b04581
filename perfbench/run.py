#!/usr/bin/env python3
"""Repo benchmark entry point: builds the benchmark program from source and
runs one workload (or all of them).

    python3 perfbench/run.py --workload paper_k6 --seed 1 --seconds 10 --trace 0

Run from the repository root. The program and libdsrt are built in Release +
LTO under .bench_build/ (configured on the first run, an incremental no-op
afterwards). With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run and the layer-budget table is printed above it. --workload all runs every
workload untraced and traced and ends with one combined JSON line.

The exit code is non-zero when the build fails, the sources are missing, or
any run breaks a correctness check. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    WHY = {w["name"]: w["why"] for w in json.load(_spec)["workloads"]}
WORKLOADS = list(WHY)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no dsrt sources here (missing %s); run from a full "
                 "checkout" % needed)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout)
            fail("build failed: " + " ".join(cmd))


def revision():
    """Short git revision of the checkout, or "unknown" outside git."""
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                                 "HEAD"], stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run_one(args, workload, trace, rev):
    """Runs the benchmark program once; returns (code, lines, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--size", args.size, "--corrupt", args.corrupt,
           "--revision", rev, "--out", OUT]
    # A run spends --seconds measuring plus one checked run and the tail of
    # its last timed run; the slack covers those at full size.
    timeout_s = 2 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %g s" % (workload, timeout_s))
    lines = proc.stdout.rstrip("\n").split("\n")
    lines.insert(1, "  why: " + WHY[workload])
    result = None
    if proc.returncode in (0, 1) and lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny = short horizons, for the self-test")
    parser.add_argument("--corrupt", default="none",
                        choices=["none", "fingerprint", "conservation"],
                        help="inject a fault into one run (self-test)")
    args = parser.parse_args()

    build()
    os.makedirs(OUT, exist_ok=True)
    rev = revision()

    if args.workload != "all":
        code, lines, _ = run_one(args, args.workload, args.trace, rev)
        print("\n".join(lines), flush=True)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, result = run_one(args, workload, trace, rev)
            print("\n".join(lines[:-1] if result else lines), flush=True)
            worst = max(worst, code)
            if result is None:
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
