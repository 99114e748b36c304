#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one commit agree?

    python3 perfbench/steady.py [--runs N] [--seconds S] [--workloads a,b]

Run from the repository root.  Builds the benchmark once, then runs
every workload in two sets of fresh processes, the sets interleaved run
by run, each run with its own seed (set 1 uses seeds 1..N, set 2
1001..1000+N).  For every end-to-end metric of BENCHMARK.json it prints
each set's median and quartiles, the spread (interquartile distance
over the median) against the metric's bound, and how far the two sets'
medians lie apart, in either direction, against the bound.  It also
compares the share of failed operations between the sets.  Exits 1 if
anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def one_run(exe, workload, seed, seconds):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    exe = bench.build()
    if exe is None:
        return 2
    workloads = args.workloads.split(",")
    results = {(w, s): [] for w in workloads for s in range(SETS)}
    for i in range(args.runs):
        for s in range(SETS):
            for w in workloads:
                seed = 1000 * s + i + 1
                r = one_run(exe, w, seed, args.seconds)
                results[(w, s)].append(r)
                m = r["metrics"]
                print(f"run {i + 1} set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"deliveries_per_s={m['deliveries_per_s']['value']:.6g} "
                      f"setup_s={m['setup_s']['value']:.4g}", flush=True)
    ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':24} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in results[(w, s)]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                medians.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD", False
                elif spread > bound / 3:
                    verdict = "ok (above a third of the bound)"
                print(f"  {name:24} {s + 1:>3} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                      f"{spread:7.3f} {bound:6.2f}  {verdict}")
            a, b = medians
            shift = abs(b - a) / a
            verdict = "ok" if shift <= bound else "SHIFT"
            ok = ok and shift <= bound
            print(f"  {name:24} set 2 vs 1: {100 * (b - a) / a:+.2f}% (bound "
                  f"{100 * bound:.0f}% either way)  {verdict}")
        shares = []
        for s in range(SETS):
            rs = results[(w, s)]
            shares.append(sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs))
            if not all(r["correct"] for r in rs):
                print(f"  set {s + 1}: some runs failed their output checks")
                ok = False
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
