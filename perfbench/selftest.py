#!/usr/bin/env python3
"""Self-test of the repo benchmark, at tiny size (a few seconds per run):

  * every workload emits every metric named in BENCHMARK.json, with its unit:
    the end-to-end metrics untraced, the per-layer metrics traced;
  * a deliberately corrupted fingerprint, and a deliberately lost task in the
    conservation count, are each reported as a failed run (non-zero exit,
    "correct": false, counted in "failed") rather than as a number;
  * in a directory holding only BENCHMARK.json and the benchmark's own files
    the benchmark exits non-zero without printing a result.

    python3 perfbench/selftest.py      # from the repository root
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "1", "--seconds", "1", "--size", "tiny"]


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")]
                          + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(["--workload", workload, "--trace", str(trace)]
                               + TINY)
            label = "%s trace=%d" % (workload, trace)
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": runs and passes its correctness checks")
            emitted = result["metrics"] if result else {}
            for metric in spec[group]:
                got = emitted.get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s: emits %s [%s]" % (label, metric["name"],
                                             metric["unit"]))
            check(set(emitted) == {m["name"] for m in spec[group]},
                  label + ": emits no metric BENCHMARK.json does not name")

    for corrupt in ("fingerprint", "conservation"):
        code, result = run(["--workload", "paper_k6", "--trace", "0",
                            "--corrupt", corrupt] + TINY)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] == 1
              and result["attempted"] > result["failed"],
              "corrupted %s is reported as one failed run" % corrupt)

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(["--workload", "paper_k6", "--trace", "0"] + TINY,
                       cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and result is None,
          "without the sources it exits non-zero and prints no result")

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
