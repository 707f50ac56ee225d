#!/usr/bin/env python3
"""Build and run the repository's benchmark.

From the repository root:

    python3 perfbench/run.py --workload tpcc-rnd --seed 1 --seconds 10 --trace 0

The Go program in perfbench/ is a module of its own that uses the
repository's packages through a replace directive. This script builds it
into .bench_build/ (the Go build cache lives there too, so nothing is
written outside the checkout), then runs it from the repository root with
the arguments given here. The last line of standard output is the result
JSON; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root, so there is no program to build",
              file=sys.stderr)
        return False
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOMODCACHE=os.path.join(BUILD, "gomodcache"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local")
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return False
    if done.returncode != 0:
        print(f"perfbench: build failed with exit code {done.returncode}", file=sys.stderr)
        return False
    return True


def main():
    if not build():
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
