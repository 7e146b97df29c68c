"""Structured tracing: monotonic span trees with a per-request trace id.

A :class:`Trace` is the root :class:`Span` of one request; spans nest into a
tree and each records ``time.perf_counter()`` start/end stamps, so span
durations are monotonic and immune to wall-clock jumps.  The wall-clock
timestamp lives only on the root (for log correlation).

**Zero cost when disabled.**  There is no "disabled recorder" object to
allocate: code paths take ``trace: Span | None`` and guard with
``if trace is not None`` -- the disabled path is a single ``is None`` test,
no allocation, no call.  ``tests/telemetry/test_hot_path_cost.py`` pins
the registry side by counting: one search records the same number of
metric updates whatever its match count, and none with the kill switch off.

**Thread-safety.**  Spans take no locks: ``list.append`` is atomic under
the GIL and each child span is only ever mutated by the thread that
created it, so concurrent attachment loses nothing.  In practice a trace
is extended by one thread at a time (a server request opens its span on
the event loop, then waits while the engine thread adds children), and
scatter-gather evaluates its shards one after another in the calling
thread, so their ``scatter.shard`` spans arrive in shard order.
"""

from __future__ import annotations

import random
import time


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (random, collision-negligible)."""
    return f"{random.getrandbits(64):016x}"


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "started", "ended", "meta", "children")

    def __init__(self, name: str, **meta) -> None:
        self.name = name
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.meta = meta or None
        self.children: list[Span] = []

    # ----------------------------------------------------------------- build
    def span(self, name: str, **meta) -> "Span":
        """Start a child span now (attach is atomic; see module docstring)."""
        child = Span(name, **meta)
        self.children.append(child)
        return child

    def end(self) -> "Span":
        """Close the span (idempotent: the first end wins)."""
        if self.ended is None:
            self.ended = time.perf_counter()
        return self

    def annotate(self, **meta) -> None:
        """Attach key/value metadata to the span."""
        if self.meta is None:
            self.meta = {}
        self.meta.update(meta)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()

    # ---------------------------------------------------------------- export
    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds (up to now if the span is still open)."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return (end - self.started) * 1000.0

    def to_dict(self) -> dict:
        """A JSON-ready tree of ``{name, duration_ms, meta?, children?}``."""
        node: dict = {
            "name": self.name,
            "duration_ms": round(self.duration_ms, 3),
        }
        if self.meta:
            node["meta"] = dict(self.meta)
        if self.children:
            node["children"] = [child.to_dict() for child in self.children]
        return node


class Trace(Span):
    """The root span of one request, carrying the trace id.

    The trace id doubles as the request id on the HTTP path: accepted from
    an ``X-Request-Id`` header or generated, then stamped into the access
    log, the response payload and any slow-query dump, so client and server
    logs join on one key.
    """

    __slots__ = ("trace_id", "wall_time")

    def __init__(self, trace_id: str | None = None, name: str = "request", **meta) -> None:
        super().__init__(name, **meta)
        self.trace_id = trace_id or new_trace_id()
        self.wall_time = time.time()

    def to_dict(self) -> dict:
        node = super().to_dict()
        node["trace_id"] = self.trace_id
        node["ts"] = self.wall_time
        return node
