#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload's traced run, twice on one seed at a reduced size,
   reports the same exact counters and digests.
2. Every run's metric names are exactly the ones BENCHMARK.json lists.
3. A deliberately wrong pinned value fails the run (exit 1, "correct":
   false), so the correctness gates are live.
4. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Covers BENCHMARK.json's workloads and serve, which runs by name.
Takes about two minutes after the first build.
"""

import json
import os
import shutil
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]
EXTRA_WORKLOADS = ["serve"]
EXACT = [
    "runtime.steps_per_op",
    "runtime.reads_per_op",
    "snapshot.scans_per_op",
    "core.rounds_per_op",
    "coin.walk_steps_per_op",
    "check.runs",
    "check.pruned_frac",
]
WRONG_PINS = {
    "decide": "canary=0",
    "serve": "canary=0",
    "explore": "consensus-2p=0",
    "large-n": "canary=0",
}

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload, trace, seconds=2, seed=3, extra=(), cwd="."):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(RUN + args + list(extra), cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def result(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def digests(lines):
    return [l for l in lines if "digest=" in l]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    for w in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        code, lines = bench(w, 0)
        r = result(lines)
        check(code == 0 and r is not None and r["correct"],
              f"{w}: untraced run passes its gates")
        if r:
            check(list(r["metrics"]) == e2e, f"{w}: end-to-end metric names")

        runs = [bench(w, 1) for _ in range(2)]
        res = [result(lines) for _, lines in runs]
        check(all(code == 0 for code, _ in runs)
              and all(r and r["correct"] for r in res),
              f"{w}: traced runs pass their gates")
        if all(res):
            check(list(res[0]["metrics"]) == layers,
                  f"{w}: per-layer metric names")
            same = all(res[0]["metrics"][k]["value"]
                       == res[1]["metrics"][k]["value"] for k in EXACT)
            check(same, f"{w}: exact counters repeat")
            check(digests(runs[0][1]) == digests(runs[1][1]),
                  f"{w}: digests repeat")

        code, lines = bench(w, 0, extra=["--pin", WRONG_PINS[w]])
        r = result(lines)
        check(code == 1 and r is not None and not r["correct"],
              f"{w}: a wrong pinned value fails the run")

    stripped = os.path.join(".bench_build", "stripped")
    shutil.rmtree(stripped, ignore_errors=True)
    os.makedirs(stripped)
    shutil.copy("BENCHMARK.json", stripped)
    shutil.copytree("perfbench", os.path.join(stripped, "perfbench"))
    code, lines = bench("decide", 0, cwd=stripped)
    check(code != 0 and result(lines) is None,
          "without the repository the benchmark fails and prints no result")
    shutil.rmtree(stripped)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
