#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rw-uniform --seed 1 --seconds 10 --trace 0

Builds the Go program in perfbench/ against the checkout's sources, with
the Go build cache and every scratch file under .bench_build/ in the
checkout, then runs it with the same arguments. The program prints an
environment stamp, a detail line and, last, the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# The first build compiles the standard library into an empty cache.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
    })
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    env = go_env()
    try:
        build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BINARY, "--root", ROOT] + sys.argv[1:], cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
