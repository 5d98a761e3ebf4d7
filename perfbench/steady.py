#!/usr/bin/env python3
"""Steadiness check: repeat every workload with different seeds and report,
per end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) next to the metric's bound in
BENCHMARK.json.  With --sets 2 it also reports how far the second set's median
moved from the first's, as a share of the first.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                                [--workloads teller,feed] [--first-seed 1]
                                [--verbose]

Each set's figures are printed on a line of their own.  A spread at or
above a third of the bound is flagged, setup_s's too; so is a median that
moved from the first set's by more than the bound in either direction (the
sets run the same code, so they must agree both ways), and a share of failed
operations that differs between runs.  Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value, in run order")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    flagged = 0
    for w in workloads:
        sets = []
        for s in range(args.sets):
            first = args.first_seed + s * args.runs
            sets.append([one_run(w, seed, seconds)
                         for seed in range(first, first + args.runs)])
        shares = {r["failed"] / r["attempted"] for rs in sets for r in rs}
        print(f"\n{w}: {args.sets} x {args.runs} runs of {seconds} s, "
              f"failed share {sorted(shares)}")
        if len(shares) > 1:
            flagged += 1
            print("  FLAG: the share of failed operations differs between runs")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  shift")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            first_med = None
            for i, vs in enumerate(values):
                med, q1, q3, sp = spread(vs)
                note = shift = ""
                if sp >= bound / 3:
                    note += " FLAG spread"
                if first_med is None:
                    first_med = med
                else:
                    delta = (med - first_med) / first_med
                    shift = f"{delta:+.3f}"
                    if abs(delta) > bound:
                        note += " FLAG shift"
                if note:
                    flagged += 1
                print(f"  {name if i == 0 else '':<16} {i + 1:>3} {med:12.4g} "
                      f"{q1:12.4g} {q3:12.4g} {sp:7.3f} {bound:6.2f}  "
                      f"{shift}{note}")
                if args.verbose:
                    print("    runs: " + " ".join(f"{v:.4g}" for v in vs))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
