#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and the libraries it links with dune into
.bench_build at the repository root, then runs it with the same arguments.
The benchmark prints its report and, as the last line of stdout, one JSON
object; with --trace 1 it also writes its spans to
.bench_build/perfbench/spans-<workload>-<seed>.tsv. The exit code is the
benchmark's (1 on any wrong verdict); a failed build exits 1 before any
result is printed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORKLOADS = ("case-sweep", "pmdk-mf2", "clht-conc")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # dune's own output goes to stderr: stdout carries only the result.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        out_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(os.path.join(ROOT, out_dir), exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            out_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
