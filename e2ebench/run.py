#!/usr/bin/env python3
"""End-to-end verifier benchmark: builds it from source and runs it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload {p4_sweep,login_enum,replay_edits} \
        --seed N --seconds S --trace {0,1}

`--workload all` runs the three workloads in turn with the same seed.

The first run configures and builds the `e2ebench` program (the verifier
library from src/ plus e2ebench/e2ebench.cc) under .bench_build/e2ebench;
later runs only re-check the build. The program's standard output is passed
through: human-readable metric lines, then one JSON result object as the
last line. Build output goes to standard error. The exit code is the
program's (0 only when every verdict and count check passed), or 1 when the
sources or the build are missing.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
STATE = os.path.join(ROOT, ".bench_build", "e2ebench-state")
WORKLOADS = ("p4_sweep", "login_enum", "replay_edits")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("e2ebench: verifier sources not found under %s\n" %
                         os.path.join(ROOT, "src"))
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("e2ebench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not build():
        return 1
    sys.stdout.flush()
    program = os.path.join(BUILD, "e2ebench")
    rc = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        rc = max(rc, subprocess.run([
            program, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--inputs", os.path.join(HERE, "inputs"), "--state", STATE,
        ]).returncode)
    return rc


if __name__ == "__main__":
    sys.exit(main())
