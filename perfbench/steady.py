"""Steadiness check: two sets of runs of the same code, compared.

Usage (from the repository root)::

    python3 perfbench/steady.py

Each set runs every workload in ``BENCHMARK.json`` :data:`RUNS` times, one
run after another (never in parallel), each with its own seed: set A uses
seeds ``1 .. 10``, set B ``1001 .. 1010``.  For each workload and end-to-end
metric it prints each set's median and its spread (the distance between the
first and third quartile over the median), and then checks:

* every spread is within the metric's bound in ``BENCHMARK.json``;
* the two medians differ by no more than the bound, in either direction;
* the share of failed queries is the same in both sets, and every run
  reported ``correct``.

It exits with 1 when a check fails.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 180
RUNS = 10
SET_SEED_BASES = (1, 1001)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(benchmark: dict, workload: str, seed: int) -> dict:
    """One run of the benchmark command; returns its result object with
    the run's host seconds added as ``wall_s``."""
    command = benchmark["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]),
        "--trace", "0",
    ]
    started = time.perf_counter()
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    return result


def spread(values) -> float:
    """Interquartile distance over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def change(before: float, after: float) -> float:
    """How far ``after`` lies from ``before``, as a share of it."""
    return (after - before) / before


def main() -> int:
    benchmark = load_benchmark()
    ok = True
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        sets = [
            [run_once(benchmark, workload, base + n) for n in range(RUNS)]
            for base in SET_SEED_BASES
        ]
        print(f"\n{workload}")
        shares = []
        for results in sets:
            if not all(result["correct"] for result in results):
                print("  a run reported correct = false")
                ok = False
            attempted = sum(result["attempted"] for result in results)
            failed = sum(result["failed"] for result in results)
            shares.append(failed / attempted)
        walls = [result["wall_s"] for results in sets for result in results]
        print(f"  failed share per set: {shares}; longest run {max(walls):.1f}s")
        if len(set(shares)) > 1:
            ok = False
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = []
            medians = []
            for results in sets:
                values = [result["metrics"][name]["value"] for result in results]
                medians.append(statistics.median(values))
                share = spread(values)
                if share > bound:
                    ok = False
                columns.append(f"median {medians[-1]:.6g} spread {share:.3f}")
            moved = change(*medians)
            if abs(moved) > bound:
                ok = False
            print(
                f"  {name:24s} bound {bound:.2f}  " + "  |  ".join(columns)
                + f"  |  B vs A {moved:+.3f}",
                flush=True,
            )
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
