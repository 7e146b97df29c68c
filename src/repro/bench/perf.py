"""The performance observatory core: timing, results schema, comparison.

Every benchmark in the repo -- the standalone ``benchmarks/bench_*.py``
scripts and the registered suites behind ``repro bench run`` -- times work
the same way: *min of N repeats after warmup on the monotonic clock*
(:func:`time_call`).  The minimum over repeats is the standard estimator
for CPU-bound microbenchmarks: noise (scheduler preemption, page faults,
GC) is strictly additive, so the minimum converges on the true cost.

``repro bench run`` executes registered suites (see
:mod:`repro.bench.suites`) and writes one ``BENCH_<suite>.json`` per suite
in a normalized machine-readable schema::

    {
      "schema_version": 1,
      "suite": "access_modes",
      "created_unix": 1754650000.0,
      "quick": true,
      "env": {"python": "3.12.3", "implementation": "CPython",
              "platform": "Linux-...", "machine": "x86_64", "cpu_count": 8},
      "corpus": {"nodes": 300, ...},
      "cases": [
        {"name": "fast/BOOL", "repeats": 5, "warmup": 1,
         "min_seconds": 0.0123, "mean_seconds": 0.013, "max_seconds": 0.015,
         "throughput_per_s": 812.2, "verified": true, "extra": {...}},
        ...
      ]
    }

``repro bench compare BASELINE CURRENT --fail-over PCT`` diffs two result
files (or two directories of them) on ``min_seconds`` per case and exits
non-zero when any case regressed by more than the threshold -- the CI perf
gate.  ``--profile`` attaches cProfile to each case and prints the top-N
cumulative hotspots.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.exceptions import ReproError

#: Version stamp of the BENCH_*.json schema.
SCHEMA_VERSION = 1

#: File-name pattern of persisted suite results.
RESULT_PATTERN = "BENCH_*.json"


# --------------------------------------------------------------------- timing
@dataclass(frozen=True)
class Timing:
    """Samples of one timed callable (seconds, monotonic clock)."""

    samples: tuple[float, ...]

    @property
    def min(self) -> float:
        return min(self.samples)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)

    @property
    def max(self) -> float:
        return max(self.samples)


def time_call(
    func: Callable[[], object],
    repeats: int = 5,
    warmup: int = 1,
) -> Timing:
    """Min-of-N timing: ``warmup`` untimed passes, then ``repeats`` timed ones.

    The shared timing core of every benchmark in the repo.  Uses
    ``time.perf_counter`` (monotonic, highest available resolution); the
    callable's return value is discarded.
    """
    if repeats < 1:
        raise ReproError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ReproError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        func()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        samples.append(time.perf_counter() - started)
    return Timing(tuple(samples))


def profile_call(func: Callable[[], object], top: int = 15) -> str:
    """One pass under cProfile; returns the top-``top`` cumulative hotspots."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        func()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return buffer.getvalue()


# ---------------------------------------------------------------- suite model
@dataclass
class CaseResult:
    """One measured benchmark case, JSON-shaped by :meth:`to_dict`."""

    name: str
    timing: Timing
    repeats: int
    warmup: int
    items: int | None = None  # per-pass work items, for throughput
    verified: "bool | None" = None  # results equality-checked before timing
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        throughput = (
            self.items / self.timing.min
            if self.items and self.timing.min > 0
            else None
        )
        return {
            "name": self.name,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "min_seconds": self.timing.min,
            "mean_seconds": self.timing.mean,
            "max_seconds": self.timing.max,
            "throughput_per_s": throughput,
            "verified": self.verified,
            "extra": self.extra,
        }


class SuiteRun:
    """Accumulates the cases of one suite execution (handed to suite fns)."""

    def __init__(
        self,
        name: str,
        quick: bool,
        profile_top: int = 0,
        optimizer: str = "off",
    ) -> None:
        self.name = name
        self.quick = quick
        self.profile_top = profile_top
        #: Planning-layer mode the CLI asked for; suites that exercise the
        #: optimizer explicitly (the ``optimizer`` suite) pin their own
        #: modes per case, everything else builds engines in this one.
        self.optimizer = optimizer
        self.corpus: dict = {}
        self.cases: list[CaseResult] = []
        self.profiles: dict[str, str] = {}

    def case(
        self,
        name: str,
        func: Callable[[], object],
        *,
        repeats: int = 5,
        warmup: int = 1,
        items: int | None = None,
        verified: "bool | None" = None,
        extra: "dict | None" = None,
    ) -> CaseResult:
        """Time ``func`` through the shared core and record the case."""
        timing = time_call(func, repeats=repeats, warmup=warmup)
        result = CaseResult(
            name=name,
            timing=timing,
            repeats=repeats,
            warmup=warmup,
            items=items,
            verified=verified,
            extra=dict(extra or {}),
        )
        self.cases.append(result)
        if self.profile_top:
            self.profiles[name] = profile_call(func, self.profile_top)
        return result

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.name,
            "created_unix": time.time(),
            "quick": self.quick,
            "optimizer": self.optimizer,
            "env": env_fingerprint(),
            "corpus": self.corpus,
            "cases": [case.to_dict() for case in self.cases],
        }


def env_fingerprint() -> dict:
    """Where a result was measured (python / platform / cpu count)."""
    import os

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


# ------------------------------------------------------------- suite registry
#: Registered suites: name -> (description, fn(run: SuiteRun) -> None).
SUITE_REGISTRY: "dict[str, tuple[str, Callable[[SuiteRun], None]]]" = {}


def register_suite(name: str, description: str):
    """Decorator adding a suite function to the ``repro bench run`` registry."""

    def decorate(fn: Callable[[SuiteRun], None]):
        if name in SUITE_REGISTRY:
            raise ReproError(f"benchmark suite {name!r} already registered")
        SUITE_REGISTRY[name] = (description, fn)
        return fn

    return decorate


def available_suites() -> "list[tuple[str, str]]":
    """(name, description) of every registered suite, loading them first."""
    _load_builtin_suites()
    return sorted(
        (name, description)
        for name, (description, _) in SUITE_REGISTRY.items()
    )


def _load_builtin_suites() -> None:
    # Import for the registration side effect; idempotent.
    from repro.bench import suites  # noqa: F401


def run_suites(
    names: "Sequence[str] | None",
    *,
    quick: bool = False,
    out_dir: "Path | str" = ".",
    profile_top: int = 0,
    optimizer: str = "off",
    echo: "Callable[[str], None] | None" = None,
) -> "list[Path]":
    """Run suites through the shared core; write one BENCH_<suite>.json each."""
    _load_builtin_suites()
    say = echo or (lambda message: None)
    selected = list(names) if names else [name for name, _ in available_suites()]
    unknown = [name for name in selected if name not in SUITE_REGISTRY]
    if unknown:
        known = ", ".join(sorted(SUITE_REGISTRY))
        raise ReproError(
            f"unknown suite(s) {', '.join(unknown)}; available: {known}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in selected:
        _, fn = SUITE_REGISTRY[name]
        say(f"suite {name}: running{' (quick)' if quick else ''} ...")
        run = SuiteRun(name, quick, profile_top=profile_top, optimizer=optimizer)
        started = time.perf_counter()
        fn(run)
        elapsed = time.perf_counter() - started
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(
            json.dumps(run.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(path)
        for case in run.cases:
            say(
                f"  {case.name}: min {case.timing.min * 1000:.3f} ms over "
                f"{case.repeats} repeat(s)"
                + (
                    f", {case.items / case.timing.min:,.0f}/s"
                    if case.items and case.timing.min > 0
                    else ""
                )
            )
        for case_name, report in run.profiles.items():
            say(f"  profile {case_name}:\n{report}")
        say(f"suite {name}: {len(run.cases)} case(s) in {elapsed:.2f} s -> {path}")
    return written


# ----------------------------------------------------------------- comparison
def load_results(path: "Path | str") -> "dict[tuple[str, str], dict]":
    """Load BENCH results from a file or a directory of BENCH_*.json.

    Returns ``(suite, case name) -> case dict``; each case dict gains a
    ``"suite"`` key for reporting.
    """
    path = Path(path)
    files: "list[Path]"
    if path.is_dir():
        files = sorted(path.glob(RESULT_PATTERN))
        if not files:
            raise ReproError(f"no {RESULT_PATTERN} files under {path}")
    elif path.is_file():
        files = [path]
    else:
        raise ReproError(f"benchmark result {path} does not exist")
    cases: "dict[tuple[str, str], dict]" = {}
    for file in files:
        try:
            payload = json.loads(file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read benchmark result {file}: {exc}")
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise ReproError(
                f"{file}: schema_version {payload.get('schema_version')!r} "
                f"(this tool reads {SCHEMA_VERSION})"
            )
        suite = payload.get("suite", file.stem)
        for case in payload.get("cases", ()):
            entry = dict(case)
            entry["suite"] = suite
            cases[(suite, case["name"])] = entry
    return cases


@dataclass(frozen=True)
class Delta:
    """One case's baseline-vs-current movement on ``min_seconds``."""

    suite: str
    name: str
    base_seconds: float
    current_seconds: float

    @property
    def pct(self) -> float:
        """Percent change; positive means the current run is slower."""
        if self.base_seconds <= 0:
            return 0.0
        return (self.current_seconds - self.base_seconds) / self.base_seconds * 100.0


def compare_results(
    baseline: "Path | str",
    current: "Path | str",
    fail_over_pct: float,
) -> "tuple[list[Delta], list[str], list[Delta]]":
    """Diff two result sets.

    Returns ``(deltas, notes, regressions)``: every matched case's movement,
    human-readable notes about unmatched cases, and the subset of deltas
    exceeding ``fail_over_pct`` (slower by more than the threshold).
    Cases present on only one side are reported in the notes but never fail
    the gate -- renaming a benchmark must not masquerade as a regression.
    """
    base = load_results(baseline)
    cur = load_results(current)
    deltas: list[Delta] = []
    notes: list[str] = []
    for key in sorted(base.keys() | cur.keys()):
        suite, name = key
        if key not in cur:
            notes.append(f"case {suite}/{name} missing from current run")
            continue
        if key not in base:
            notes.append(f"case {suite}/{name} is new (no baseline)")
            continue
        deltas.append(
            Delta(
                suite=suite,
                name=name,
                base_seconds=float(base[key]["min_seconds"]),
                current_seconds=float(cur[key]["min_seconds"]),
            )
        )
    regressions = [delta for delta in deltas if delta.pct > fail_over_pct]
    return deltas, notes, regressions


def render_comparison(
    deltas: "Iterable[Delta]",
    notes: "Iterable[str]",
    regressions: "Iterable[Delta]",
    fail_over_pct: float,
) -> str:
    """A human-readable comparison table plus the verdict line."""
    lines = [
        f"{'suite/case':<42} {'baseline':>12} {'current':>12} {'change':>9}"
    ]
    regression_keys = {(d.suite, d.name) for d in regressions}
    for delta in deltas:
        marker = "  << REGRESSION" if (delta.suite, delta.name) in regression_keys else ""
        lines.append(
            f"{delta.suite + '/' + delta.name:<42} "
            f"{delta.base_seconds * 1000:>9.3f} ms "
            f"{delta.current_seconds * 1000:>9.3f} ms "
            f"{delta.pct:>+8.1f}%{marker}"
        )
    for note in notes:
        lines.append(f"note: {note}")
    regression_count = len(regression_keys)
    if regression_count:
        lines.append(
            f"FAIL: {regression_count} case(s) slower than the "
            f"{fail_over_pct:g}% threshold"
        )
    else:
        lines.append(f"OK: no case slower than the {fail_over_pct:g}% threshold")
    return "\n".join(lines)
