"""Outside-in span recording for the traced run.

The harness records a span around each of *its own* calls into a layer's
public entry point; nothing inside ``src/repro`` is instrumented.  One op is
first timed through the outermost boundary (the call a user makes), then
replayed through successively deeper boundaries.  A replay is recorded as a
child of the span it would have run inside, so the usual rule applies:

    self time of a span = its duration - the durations of its children

e.g. ``core.search`` has the children ``core.parse_query`` and
``engine.execute_scored``; what is left is result building -- the core
layer's own cost.  Replays are separate measurements, so a child can exceed
its parent by noise; a span's self time is clipped at zero.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    parent: "int | None"
    op: int
    name: str
    layer: str
    start: float
    end: float
    meta: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """An append-only list of :class:`Span`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def call(self, name, layer, op, parent, fn, *args, **meta_and_kwargs):
        """Time ``fn(*args)``; returns ``(result, span_id)``.

        Keyword arguments are span metadata (class, hit/miss), not passed on.
        """
        started = time.perf_counter()
        result = fn(*args)
        ended = time.perf_counter()
        return result, self.add(name, layer, op, parent, started, ended, **meta_and_kwargs)

    def add(self, name, layer, op, parent, started, ended, **meta) -> int:
        span_id = len(self.spans)
        self.spans.append(Span(span_id, parent, op, name, layer, started, ended, meta))
        return span_id

    def annotate(self, span_id: int, **meta) -> None:
        self.spans[span_id].meta.update(meta)

    # ------------------------------------------------------------- analysis
    def matching(self, name: str, **where) -> list[Span]:
        """The spans called ``name`` whose meta matches ``where``."""
        return [
            s for s in self.spans
            if s.name == name and all(s.meta.get(k) == v for k, v in where.items())
        ]

    def durations(self, name: str, **where) -> list[float]:
        return [s.duration for s in self.matching(name, **where)]

    def self_times(self) -> dict[int, float]:
        child_total: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.duration
        return {s.id: max(0.0, s.duration - child_total.get(s.id, 0.0)) for s in self.spans}

    def self_durations(self, name: str, **where) -> list[float]:
        selfs = self.self_times()
        return [selfs[s.id] for s in self.matching(name, **where)]

    def layer_shares(self) -> dict[str, float]:
        """Each layer's share of the total self time (sums to 1)."""
        selfs = self.self_times()
        by_layer: dict[str, float] = defaultdict(float)
        for span in self.spans:
            by_layer[span.layer] += selfs[span.id]
        total = sum(by_layer.values()) or 1.0
        return {layer: value / total for layer, value in by_layer.items()}

    def write(self, path) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        selfs = self.self_times()
        payload = [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "name": s.name,
                "layer": s.layer,
                "start_us": round((s.start - origin) * 1e6, 1),
                "end_us": round((s.end - origin) * 1e6, 1),
                "self_us": round(selfs[s.id] * 1e6, 1),
                **({"meta": s.meta} if s.meta else {}),
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": payload}, handle)
