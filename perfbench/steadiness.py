#!/usr/bin/env python3
"""Steadiness report for the serving-path benchmark.

Runs each workload of BENCHMARK.json repeatedly, each run with its own seed,
and prints every end-to-end metric's median, quartiles and spread (distance
between the quartiles as a share of the median) against the metric's bound.
With --sets 2 it makes two sets of runs and also prints how far the second
set's median moved from the first's, in the metric's worse direction.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads city_rush --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported incorrect output")
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    worst = 0.0
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                result = run_once(spec, workload, seed, 0)
                for m in metrics:
                    values[m["name"]].append(result["metrics"][m["name"]]["value"])
                print(f"{workload} set {s + 1} seed {seed}: " +
                      " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
            sets.append(values)
        print(f"\n{workload}: {args.runs} runs per set")
        print(f"  {'metric':<20} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} "
              f"{'bound':>6} {'drift':>7}  verdict")
        for m in metrics:
            name = m["name"]
            q1, med, q3 = quartiles(sets[0][name])
            spread = (q3 - q1) / med if med else float("inf")
            drift = ""
            verdict = "ok" if spread <= m["bound"] / 3 else ("within bound" if spread <= m["bound"]
                                                             else "TOO WIDE")
            if name == "setup_s":
                verdict = "(spread not gated)"
            else:
                worst = max(worst, spread / m["bound"])
            if args.sets == 2:
                med2 = statistics.median(sets[1][name])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                drift = f"{worse:+.3f}"
                if worse > m["bound"]:
                    verdict += ", DRIFT"
            print(f"  {name:<20} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} "
                  f"{m['bound']:>6.2f} {drift:>7}  {verdict}")
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
