#!/usr/bin/env python3
"""End-to-end benchmark of the full-text search stack (see README.md here).

    python3 benchmarks/e2e/run.py --workload lib_mixed --seed 1 --seconds 15 --trace 0

One invocation is one *run* of one workload in a fresh process:

    generate inputs -> reference results -> set-up x3 (timed, median)
    -> verify (one untimed, checked pass) -> measured passes of the identical
    op stream, ``--seconds`` in all -> end-of-run checks -> one JSON line.

Every timing metric is computed per pass and reported as the median over the
passes, so a noisy-neighbour burst costs a pass or two, not the run; and every
pass is normalised by a fixed calibration kernel timed right beside it, so a
minutes-long slow spell of the shared machine does not read as a slow program
(see :class:`Calibrator`; the ``# raw`` line has the un-normalised medians).
With ``--trace 1`` the run instead reports the per-layer metrics (layers.py).
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import array
import bisect
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = ROOT / ".bench_work"

WORKLOAD_NAMES = ("lib_mixed", "lib_sharded_zipf", "http_hot", "live_rw")
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_ratio", "ratio"),
)
SETUP_REPEATS = 3
MIN_PASSES = 5


class Calibrator:
    """A fixed piece of pure-Python work, timed beside every measurement.

    This sandbox shares two cores with unknown neighbours: identical passes
    run 10-15 % slower for minutes at a time.  No statistic of the passes
    themselves removes that; a reference measured *at the same moment* does.
    Each timed region (a set-up, a pass) is bracketed by kernel timings and
    its times are multiplied by ``NOMINAL_S / fastest kernel run of the
    bracket`` -- i.e. reported as they would read on a machine on which the
    kernel takes ``NOMINAL_S``.  The kernel touches nothing under ``src/``, so
    a change to the program moves the metrics in full while machine speed
    cancels.  What it buys is measured in README "Measured spread" (the raw
    column); the un-normalised medians are printed on the ``# raw`` line.

    The mix imitates what the engines do: binary search and dict probes over
    a few MB of boxed ints, pointer chasing through a typed array larger
    than L2, small-int arithmetic, and tuple/str allocation.
    """

    #: The unit of the normalised times: the kernel's quiet-time cost where
    #: the benchmark was written, so normalised and raw agree on a quiet run.
    #: Any constant would compare two commits equally well.
    NOMINAL_S = 0.0375

    def __init__(self) -> None:
        rng = random.Random(20060330)
        self.values = [rng.randrange(10**6) for _ in range(40000)]
        self.ordered = sorted(self.values)
        self.table = {value: index for index, value in enumerate(self.values)}
        # A full-cycle permutation of 2**20 slots (an LCG step), 8 MB.
        mask = (1 << 20) - 1
        self.chain = array.array(
            "q", ((i * 1664525 + 1013904223) & mask for i in range(mask + 1)))
        self.last = self.best_of_two()

    def kernel(self) -> float:
        started = time.perf_counter()
        acc = 0
        ordered, table, chain = self.ordered, self.table, self.chain
        for value in self.values:
            acc += table[value] + bisect.bisect_left(ordered, value)
        at = 0
        for _ in range(100000):
            at = chain[at]
        for i in range(150000):
            acc += (i * 3 + at) & 255
        words = [str(value) for value in self.values[:15000]]
        acc += len(" ".join(words).split()) + len([(w, acc) for w in words])
        return time.perf_counter() - started

    def best_of_two(self) -> float:
        return min(self.kernel(), self.kernel())

    def scale(self) -> float:
        """Close a bracket: the factor for the region since the last call."""
        before, self.last = self.last, self.best_of_two()
        return self.NOMINAL_S / min(before, self.last)


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def iqr_ratio(values: list[float]) -> float:
    """Inter-quartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def pass_metrics(result, scale: float) -> dict[str, float]:
    """One pass's timing metrics, times multiplied by ``scale``."""
    ordered = sorted(result.latencies)
    ops = len(ordered)
    return {
        "throughput_ops_s": ops / (result.wall_s * scale),
        "latency_p50_ms": percentile(ordered, 0.50) * scale * 1e3,
        "latency_p95_ms": percentile(ordered, 0.95) * scale * 1e3,
        "latency_p99_ms": percentile(ordered, 0.99) * scale * 1e3,
        "cpu_ms_per_op": result.cpu_s * scale / ops * 1e3,
    }


def measure_passes(workload, calibrate: Calibrator, seconds: float, min_passes: int) -> list:
    """Whole passes whose wall-clocks sum closest to ``seconds``."""
    passes = []
    measured = 0.0
    calibrate.scale()
    while len(passes) < min_passes or measured + passes[-1].wall_s / 2 < seconds:
        gc.collect()
        passes.append(workload.run_pass())
        passes[-1].scale = calibrate.scale()
        measured += passes[-1].wall_s
    return passes


def run(args) -> dict:
    import layers
    import workloads

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    try:
        workload.reference()
        log(f"inputs + reference: {time.perf_counter() - started:.2f} s, "
            f"{len(workload.kinds)} ops/pass, {workload.oracle_queries} oracle queries")
        log(f"op stream sha256: {workload.stream_sha256}")

        repeats = 1 if (args.smoke or args.trace) else SETUP_REPEATS
        calibrate = Calibrator()
        setups_raw, setups = [], []
        for repeat in range(repeats):
            if repeat:
                workload.discard()
            calibrate.scale()
            setup_started = time.perf_counter()
            workload.setup()
            setups_raw.append(time.perf_counter() - setup_started)
            setups.append(setups_raw[-1] * calibrate.scale())
        log("set-up (normalised): " + " ".join(f"{s:.3f}" for s in setups) + " s  raw parts: "
            + " ".join(f"{k}={v:.3f}" for k, v in workload.setup_parts.items()))
        workload.verify()
        # Everything set-up built is long-lived: take it out of the collector's
        # sight so neither the per-pass gc.collect() nor a generation-2
        # collection inside a pass walks the whole corpus (0.4 s at full scale).
        gc.collect()
        gc.freeze()

        min_passes = 2 if args.smoke else MIN_PASSES
        budget = 0.0 if args.smoke else args.seconds * (0.3 if args.trace else 1.0)
        passes = measure_passes(workload, calibrate, budget, 3 if args.trace else min_passes)
        peak_rss_mb = workload.peak_rss_mb()
        per_pass = [pass_metrics(p, p.scale) for p in passes]
        medians = {
            key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]
        }
        medians["setup_s"] = statistics.median(setups)
        spreads = {key: iqr_ratio([m[key] for m in per_pass]) for key in per_pass[0]}
        log(f"{len(passes)} passes, raw wall "
            + " ".join(f"{p.wall_s:.3f}" for p in passes) + " s")
        log("calibration scale per pass: " + " ".join(f"{p.scale:.3f}" for p in passes))
        log("median over passes (IQR/median): " + "  ".join(
            f"{key}={medians[key]:.4g} ({spreads[key]:.1%})" for key in spreads))
        unscaled = [pass_metrics(p, 1.0) for p in passes]
        raw = {key: statistics.median(m[key] for m in unscaled) for key in unscaled[0]}
        raw["setup_s"] = statistics.median(setups_raw)
        log("raw " + json.dumps(raw))

        traced = None
        if args.trace:
            traced = layers.trace(workload, passes, spreads, WORK_ROOT)
        attempted = sum(len(p.latencies) for p in passes)
        failed = sum(p.failed for p in passes) + workload.finish(passes)
        if args.trace:
            traced.update(layers.after_finish(workload))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": traced.get(name, 0.0), "unit": unit}
            for name, unit, _better in layers.PER_LAYER
        }
    else:
        values = dict(medians)
        values["peak_rss_mb"] = peak_rss_mb
        values["stored_bytes_ratio"] = workload.stored_bytes / workload.text_bytes
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def log(message: str) -> None:
    print(f"# {message}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long to measure (sum of pass wall-clocks)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics and write a span file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, two passes: a seconds-long self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found: the benchmark runs the "
              "program from source and must be started inside a checkout",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order feeds float summation order in the program;
        # pin it for this process and (by inheritance) every child.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            command = [sys.executable, __file__, "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            log(f"==== {name}")
            code = subprocess.run(command).returncode or code
        return code

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import VerifyError

    try:
        result = run(args)
    except VerifyError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
