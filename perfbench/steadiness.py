"""Steadiness report: run workloads repeatedly and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/steadiness.py [--workloads W ...] [--runs 10]
        [--sets 1]

Each set runs every workload ``--runs`` times, with seeds 1 to
``--runs``, through ``perfbench/run.py``, each run ``run_seconds`` long
(from ``BENCHMARK.json``).  For each end-to-end metric it
prints the median, quartiles, minimum and maximum, and the spread: the
distance between the quartiles (``statistics.quantiles(values, n=4)``)
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  With ``--sets 2`` it also compares the two sets'
medians against the bound.  Exits 1 if a run fails, a spread exceeds
its bound or a set's median is worse than the first set's by more than
the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def describe(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
        "spread": (q3 - q1) / q2,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.runs + 1):
                start = time.monotonic()
                runs.append(run_once(workload, seed, seconds))
                print(f"  {workload} set {s + 1} seed {seed} "
                      f"({time.monotonic() - start:.0f} s wall): "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
                      flush=True)
            sets.append(runs)
        print(f"\n{workload} ({args.runs} runs per set, {seconds} s each)")
        print(f"{'metric':<14} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'min':>10} {'max':>10} {'spread':>7} {'bound':>6}")
        medians = []
        for name, meta in metrics.items():
            for s, runs in enumerate(sets):
                d = describe([r[name] for r in runs])
                medians.append((name, s, d["median"]))
                flag = ""
                if d["spread"] > meta["bound"]:
                    flag, ok = " OVER BOUND", False
                elif d["spread"] > meta["bound"] / 3:
                    flag = " over bound/3"
                print(f"{name:<14} {s + 1:>3} {d['median']:>10.4g} {d['q1']:>10.4g} "
                      f"{d['q3']:>10.4g} {d['min']:>10.4g} {d['max']:>10.4g} "
                      f"{d['spread']:>7.3f} {meta['bound']:>6}{flag}")
            if len(sets) > 1:
                first = [m for n, s, m in medians if n == name and s == 0][0]
                for n, s, m in medians:
                    if n != name or s == 0:
                        continue
                    worse = worse_by(first, m, meta["better"])
                    verdict = "ok" if worse <= meta["bound"] else "WORSE THAN BOUND"
                    ok = ok and worse <= meta["bound"]
                    print(f"{'':<14} set {s + 1} vs 1: {worse:+.3f} worse ({verdict})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
