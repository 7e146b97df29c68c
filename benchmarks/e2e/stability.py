#!/usr/bin/env python3
"""Does the benchmark repeat?  Run every workload several times and compare
the run-to-run spread of each end-to-end metric with its bound.

    python3 benchmarks/e2e/stability.py --sets 5            # same seed each run
    python3 benchmarks/e2e/stability.py --sets 10 --vary-seed   # the driver's protocol

Per workload x metric it prints the median, the largest relative deviation
of any run from that median, and the inter-quartile range as a share of the
median (``statistics.quantiles(values, n=4)``), beside the bound from
``BENCHMARK.json``.  The "raw" column is that same spread of the
un-normalised timings (run.py's ``# raw`` line): what the calibration kernel
buys, from the same runs.  Exit status 1 if a deviation (same seed) or an IQR
spread (``--vary-seed``) exceeds its bound; ``setup_s`` is exempt from the
spread rule, as in the driver.  Runs are interleaved across workloads so a
slow minute cannot hit one workload only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One run's metrics as reported, and its un-normalised timings."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed op(s)")
    raw = next(line for line in lines if line.startswith("# raw "))
    return ({name: metric["value"] for name, metric in result["metrics"].items()},
            json.loads(raw[len("# raw "):]))


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=5, help="runs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run i uses seed+i (default: the same seed every run)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for i in range(args.sets):
        for name in names:
            seed = args.seed + i if args.vary_seed else args.seed
            runs[name].append(run_once(name, seed, spec["run_seconds"]))
            print(f"# set {i + 1}/{args.sets} {name} seed {seed}: " + " ".join(
                f"{metric}={value:.4g}" for metric, value in runs[name][-1][0].items()),
                  file=sys.stderr, flush=True)

    failed = False
    print("| workload | metric | median | max dev | IQR/median | raw IQR/median | bound | |")
    print("|---|---|---|---|---|---|---|---|")
    for name in names:
        for metric, bound in bounds.items():
            values = [reported[metric] for reported, _raw in runs[name]]
            median = statistics.median(values)
            max_dev = max(abs(v - median) for v in values) / median
            iqr = spread(values)
            unscaled = [raw[metric] for _reported, raw in runs[name] if metric in raw]
            over = iqr > bound if args.vary_seed else max_dev > bound
            if over and not (args.vary_seed and metric == "setup_s"):
                failed = True
            print(f"| {name} | {metric} | {median:.4g} | {max_dev:.1%} | {iqr:.1%} "
                  f"| {f'{spread(unscaled):.1%}' if unscaled else ''} | {bound:.0%} "
                  f"| {'OVER' if over else ''} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
