#!/usr/bin/env python3
"""Run the benchmark several times on one workload and report each metric's
run-to-run spread beside its bound.

    python3 perfbench/spread.py --workload serve_evaluate --runs 10

Run it from the root of the repository. It reads the command, run length
and bounds from BENCHMARK.json, gives every run its own seed, and prints,
per metric, the median of the runs and the distance between their first
and third quartiles as a share of that median (statistics.quantiles with
n=4). A spread at or under a third of the bound is marked steady.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        command = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(command, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
        result = json.loads(lines[-1])
        host = " ".join(l for l in lines if l.startswith("host."))
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()) + f" [{host}]")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"\n{args.workload}, {args.runs} runs")
    print(f"{'metric':<32} {'median':>12} {'IQR/median':>11} {'bound':>6}  steady")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        steady = "-" if bound is None else ("yes" if spread <= bound / 3 else "NO")
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<32} {median:>12.6g} {spread:>11.4f} {bound_text:>6}  {steady}")


if __name__ == "__main__":
    main()
