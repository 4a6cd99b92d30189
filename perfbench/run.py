#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

The benchmark executable is built with dune into .bench_build (the first
run builds the repository's libraries, later runs find them built), then
run with the same arguments.  Its last line of standard output is the
JSON result.  A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: neither dune nor opam is on PATH")


def build():
    cmd = dune() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", TARGET,
    ]
    # Dune's shared cache lives outside the checkout; keep every build
    # artefact inside it.  Build chatter goes to stderr: standard output
    # carries the result.
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of a repository checkout")
    build()
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        done = subprocess.run([exe] + sys.argv[1:], timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
