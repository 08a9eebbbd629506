#!/usr/bin/env python3
"""Steadiness mode: runs the benchmark several times per workload and
reports each metric's median, quartiles and spread.

    python3 perfbench/steady.py [--runs N] [workload ...]

Run from the repository root. Run r uses seed r (from 1), and the workload
order alternates between runs (forward, then reversed), so slow drift on the
host does not always land on the same workload. The spread is the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median. For each end-to-end metric it is printed next to the metric's
bound from BENCHMARK.json; a spread under a third of the bound is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), wall


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("workloads", nargs="*", default=names)
    opts = parser.parse_args()
    unknown = set(opts.workloads) - set(names)
    if unknown:
        sys.exit(f"unknown workloads: {sorted(unknown)}")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in opts.workloads}
    walls = []
    for seed in range(1, opts.runs + 1):
        order = opts.workloads if seed % 2 == 1 else opts.workloads[::-1]
        for w in order:
            result, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            walls.append(wall)
            results[w].append(result)
            print(f"run {seed}/{opts.runs} {w} seed {seed}: {wall:.1f} s, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{w}: {len(runs)} runs, failed share {shares}, "
              f"correct {all(r['correct'] for r in runs)}")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"{bound:.2f} ({spread / bound:.0%} of it)"
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}  "
                  f"{note} [{unit}]")
    print(f"\nwall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")


if __name__ == "__main__":
    main()
