#!/usr/bin/env python3
"""Build the benchmark from this checkout and run one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: campaign_matrix, check_serial, check_sharded, fuzz_guided (see
README.md). The benchmark and the libraries it measures are compiled from the
checkout's sources into .bench_build/perfbench (Release); the first run
builds, later runs only relink what changed. Build output goes to stderr,
so the last line of stdout is the JSON result. The exit status is
the benchmark program's: 0 when every correctness check passed.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
