"""Timing harness for the paper's experiments.

The harness runs one *experiment point*: a fixed collection/index, a fixed
query shape (``toks_Q``, ``preds_Q``), and one timed evaluation per series.
The series names follow the paper's Figures 5--8:

* ``BOOL``       -- conjunctive keyword query on the BOOL merge engine;
* ``PPRED-POS``  -- positive-predicate query on the PPRED engine;
* ``NPRED-POS``  -- the same positive-predicate query on the NPRED engine;
* ``NPRED-NEG``  -- negative-predicate query on the NPRED engine;
* ``COMP-POS``   -- positive-predicate query on the naive COMP engine;
* ``COMP-NEG``   -- negative-predicate query on the naive COMP engine.

Timings use ``time.perf_counter`` around engine evaluation only (parsing,
planning and index construction are excluded), with a configurable number of
repetitions (the minimum is reported, which is the usual choice for
micro-benchmarks dominated by interpreter noise).  Every measurement is
preceded by one untimed warm-up evaluation so that one-time lazy costs (the
columnar index decodes posting entries on first touch) are not booked
against whichever series happens to run first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.bool_engine import BoolEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.engine.npred_engine import NPredEngine
from repro.engine.ppred_engine import PPredEngine
from repro.exceptions import WorkloadError
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.model.predicates import PredicateRegistry, default_registry
from repro.scoring.base import ScoringModel
from repro.bench.workload import workload_queries

#: The series of the paper's figures, in plot order.
SERIES = ("BOOL", "PPRED-POS", "NPRED-POS", "NPRED-NEG", "COMP-POS", "COMP-NEG")


@dataclass
class Measurement:
    """One timed evaluation."""

    series: str
    elapsed_seconds: float
    matches: int
    repeats: int = 1


@dataclass
class ExperimentPoint:
    """All series measured for one x-axis value of a figure."""

    x_value: object
    measurements: dict[str, Measurement] = field(default_factory=dict)

    def seconds(self, series: str) -> float | None:
        measurement = self.measurements.get(series)
        return measurement.elapsed_seconds if measurement else None


@dataclass
class ExperimentTable:
    """A complete figure: x-axis label plus one :class:`ExperimentPoint` per value."""

    name: str
    x_label: str
    points: list[ExperimentPoint] = field(default_factory=list)

    def series_names(self) -> list[str]:
        names: list[str] = []
        for point in self.points:
            for series in point.measurements:
                if series not in names:
                    names.append(series)
        return [series for series in SERIES if series in names] + [
            series for series in names if series not in SERIES
        ]

    def series(self, name: str) -> list[tuple[object, float]]:
        """The (x, seconds) curve of one series."""
        curve = []
        for point in self.points:
            seconds = point.seconds(name)
            if seconds is not None:
                curve.append((point.x_value, seconds))
        return curve

    def to_rows(self) -> list[dict[str, object]]:
        """Rows suitable for tabular display or CSV export."""
        rows = []
        for point in self.points:
            row: dict[str, object] = {self.x_label: point.x_value}
            for series in self.series_names():
                seconds = point.seconds(series)
                row[series] = seconds if seconds is not None else ""
            rows.append(row)
        return rows


class ExperimentHarness:
    """Run the paper's series against one index.

    ``scoring`` is handed to the engines that propagate scores (BOOL and
    COMP); PPRED and NPRED return node ids only.
    """

    def __init__(
        self,
        index: InvertedIndex,
        registry: PredicateRegistry | None = None,
        repeats: int = 1,
        npred_orders: str = "minimal",
        access_mode: str = "paper",
        scoring: ScoringModel | None = None,
    ) -> None:
        if repeats < 1:
            raise WorkloadError("repeats must be at least 1")
        self.index = index
        self.registry = registry or default_registry()
        self.repeats = repeats
        self.npred_orders = npred_orders
        self.access_mode = access_mode
        self.scoring = scoring

    # ------------------------------------------------------------------ API
    def time_engine(self, engine_name: str, query: ast.QueryNode) -> Measurement:
        """Time one engine on one query (best of ``repeats`` runs).

        One untimed warm-up evaluation precedes the timed runs; see the
        module docstring.
        """
        evaluate = self._evaluator(engine_name)
        evaluate(query)
        best = float("inf")
        matches = 0
        for _ in range(self.repeats):
            started = time.perf_counter()
            result = evaluate(query)
            elapsed = time.perf_counter() - started
            best = min(best, elapsed)
            matches = len(result)
        return Measurement(engine_name, best, matches, self.repeats)

    def run_point(
        self,
        x_value: object,
        query_tokens: Sequence[str],
        num_tokens: int,
        num_predicates: int,
        series: Sequence[str] = SERIES,
    ) -> ExperimentPoint:
        """Measure every requested series for one x-axis value."""
        queries = workload_queries(query_tokens, num_tokens, num_predicates)
        point = ExperimentPoint(x_value)
        runners = {
            "BOOL": ("bool", queries["BOOL"]),
            "PPRED-POS": ("ppred", queries["POSITIVE"]),
            "NPRED-POS": ("npred", queries["POSITIVE"]),
            "COMP-POS": ("comp", queries["POSITIVE"]),
        }
        if "NEGATIVE" in queries:
            runners["NPRED-NEG"] = ("npred", queries["NEGATIVE"])
            runners["COMP-NEG"] = ("comp", queries["NEGATIVE"])
        for series_name in series:
            runner = runners.get(series_name)
            if runner is None:
                continue
            engine_name, query = runner
            measurement = self.time_engine(engine_name, query)
            measurement.series = series_name
            point.measurements[series_name] = measurement
        return point

    # ------------------------------------------------------------- internals
    def _evaluator(self, engine_name: str):
        if engine_name == "bool":
            return BoolEngine(
                self.index, scoring=self.scoring, access_mode=self.access_mode
            ).evaluate
        if engine_name == "ppred":
            return PPredEngine(
                self.index, self.registry, access_mode=self.access_mode
            ).evaluate
        if engine_name == "npred":
            return NPredEngine(
                self.index,
                self.registry,
                orders=self.npred_orders,
                access_mode=self.access_mode,
            ).evaluate
        if engine_name == "comp":
            return NaiveCompEngine(
                self.index, self.registry, scoring=self.scoring
            ).evaluate
        raise WorkloadError(f"unknown engine {engine_name!r}")
