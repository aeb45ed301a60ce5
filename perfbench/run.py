"""perfbench: the repository's benchmark (see README.md in this directory).

Usage::

    python3 perfbench/run.py --workload {rib-batch,rib-stream,serve-mixed}
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every line but the last is for people:
the workload's figures under their own names, one per line, with unit
and sample count.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 1 if a
correctness check failed and 2 if the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("rib-batch", "rib-stream", "serve-mixed")
    )
    parser.add_argument("--seed", type=int, default=0, help="operation-sequence seed (default 0)")
    parser.add_argument(
        "--seconds", type=int, default=20,
        help="sizes the fixed operation counts to about this many measured seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        layer_units = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.append(ROOT)  # benchmarks/bench_table4.py defines the q6-q8 queries
    from harness import Tracer, dump_solver_counters, layer_metrics
    from workloads import WORKLOADS, Context

    state_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(state_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    tracer = Tracer() if args.trace else None
    ctx = Context(ROOT, workdir, args.seed, args.seconds, tracer)
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload} seed={args.seed} nproc={os.cpu_count()}"
    for name, value, unit, samples in outcome.named:
        print(f"{tag} {name}={value:.6g} {unit} (n={samples})")
    print(
        f"{tag} error_rate={outcome.failed / outcome.attempted:.6g} fraction "
        f"(n={outcome.attempted})"
    )
    for problem in outcome.problems:
        print(f"{tag} CHECK FAILED: {problem}")

    baseline_path = os.path.join(state_dir, f"untraced-{args.workload}.json")
    if tracer is None:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        }
        with open(baseline_path, "w") as handle:
            json.dump({"seed": args.seed, "ops_per_s": outcome.layer_extra["ops_per_s"]}, handle)
    else:
        dump_solver_counters(tracer)
        data = tracer.data()
        data.dump(os.path.join(state_dir, f"trace-{args.workload}.bin"))
        layers = layer_metrics([data] + outcome.child_traces, outcome.layer_extra)
        metrics = {name: {"value": layers[name], "unit": layer_units[name]} for name in layer_units}
        for name in layer_units:
            print(f"{tag} {name}={layers[name]:.6g} {layer_units[name]}")
        if layers["faurelog.apply_s"]:
            print(
                f"{tag} derive share of apply time="
                f"{layers['faurelog.derive_s'] / layers['faurelog.apply_s']:.3f}"
            )
        if os.path.isfile(baseline_path):
            with open(baseline_path) as handle:
                untraced = json.load(handle)
            print(
                f"{tag} trace overhead: {layers['trace.ops_per_s']:.4g} ops/s traced vs "
                f"{untraced['ops_per_s']:.4g} untraced (seed {untraced['seed']}), "
                f"ratio {untraced['ops_per_s'] / layers['trace.ops_per_s']:.3f}"
            )
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
