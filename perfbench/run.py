#!/usr/bin/env python3
"""Build the chronicle benchmark from the checkout this file sits in, then run it.

    python3 perfbench/run.py --workload teller|feed|fanout --seed N --seconds S --trace 0|1

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics.  Build output and progress go
to standard error.  The build does not use dune's shared cache, so nothing
is written outside the checkout.  Exits non-zero, printing no result, when the program
cannot be built (for instance, when the engine's sources are missing).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe, "run"] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
