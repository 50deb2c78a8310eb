#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The script moves to the repository root, builds perfbench/main.exe with
dune, then runs it with the same arguments; the executable's last line of
standard output is the JSON result.  Build output goes to standard error.  The exit code is non-zero, with no result printed,
when the sources to measure are missing or do not build.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def main():
    os.chdir(ROOT)
    for needed in ("dune-project", "lib"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found in {ROOT}: nothing to measure",
                  file=sys.stderr)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        return subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
