#!/usr/bin/env python3
"""Build and run the sweepmv benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark program (Release) under .bench_build/perfbench;
later calls only check that the build is up to date. The program's output
is passed through unchanged: gate lines, a host line, and as its last line
the JSON result. Exits non-zero, printing no result, when the build or the run
fails or when the result line is missing or malformed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sweepbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "sweepbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("benchmark build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if not build():
        return 1
    try:
        done = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("benchmark run timed out\n")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.stderr.write("benchmark program exited with %d\n"
                         % done.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys")
    except ValueError as err:
        sys.stderr.write(done.stdout)
        sys.stderr.write("malformed result line: %s\n" % err)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
