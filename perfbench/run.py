#!/usr/bin/env python3
"""Build the LBRM benchmark and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root.  Builds perfbench/lbrm_perf.exe with dune
(build output goes to stderr), then runs it with the same arguments; the
last line of standard output is the run's JSON result.  Exits non-zero
without a result if the build or the run fails.

--all runs every workload of BENCHMARK.json twice, untraced (end-to-end
metrics) and traced (per-layer metrics), printing each metric by name
and unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench/lbrm_perf.exe"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark executable; return its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project beside perfbench/; nothing to build",
              file=sys.stderr)
        return None
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return None
    try:
        done = subprocess.run(
            [dune, "build", "--root", ROOT, "--display", "quiet", "--cache", "disabled",
             TARGET],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return None
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    if done.returncode != 0 or not os.path.isfile(exe):
        print("perfbench: build failed", file=sys.stderr)
        return None
    return exe


def run(exe, argv):
    try:
        return subprocess.run([exe] + argv, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


def run_all(exe, argv):
    ap = argparse.ArgumentParser(prog="run.py --all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args(argv)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            print(f"== {w['name']} trace {trace}", flush=True)
            rc = run(exe, ["--workload", w["name"], "--seed", str(args.seed),
                           "--seconds", str(seconds), "--trace", trace])
            if rc != 0:
                return rc
    return 0


def main(argv):
    exe = build()
    if exe is None:
        return 2
    if argv[:1] == ["--all"]:
        return run_all(exe, argv[1:])
    return run(exe, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
