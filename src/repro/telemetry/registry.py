"""A process-wide metrics registry with Prometheus text exposition.

The registry implements the three Prometheus metric kinds the serving stack
needs -- :class:`Counter`, :class:`Gauge` and :class:`Histogram` -- with one
deliberate asymmetry: counters sit on query hot paths (one increment per
query, per cache lookup, per WAL append), so their cells are **per-thread
shards**.  Each incrementing thread writes only its own slot of a plain
dict keyed by thread id; under the GIL a single-writer dict store is atomic,
so increments take no lock at all, and a scrape sums the shards.  Every
shard is monotonically non-decreasing, hence so is the scraped sum --
the property the concurrency tests pin while server threads and the
background compactor all increment simultaneously.

Gauges and histograms are locked: they are touched per request or per
background event, never per cursor operation, so a ``threading.Lock`` is
cheap and keeps bucket counts and sums internally consistent.

A registry can be disabled wholesale (:meth:`MetricsRegistry.set_enabled`);
a disabled registry turns every ``inc``/``observe``/``set`` into an early
return, so a search leaves every scraped value unchanged.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterable, Sequence

#: Default histogram bucket bounds, in seconds (tuned for query latencies
#: from tens of microseconds to tens of seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_INF = float("inf")


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if value == _INF:
        return "+Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class _Metric:
    """Common child-cell management for every metric kind."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._registry = registry
        self._children: dict[tuple, object] = {}
        self._children_lock = threading.Lock()
        if not self.labelnames:
            # Pre-create the single unlabelled child so hot paths can hold
            # direct references and scrapes always show the family at zero.
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    # --------------------------------------------------------------- labels
    def labels(self, *values) -> object:
        """The child cell for one label-value combination (created lazily)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._children_lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _enabled(self) -> bool:
        registry = self._registry
        return registry is None or registry.enabled

    # --------------------------------------------------------------- scrape
    def _sorted_children(self) -> "list[tuple[tuple, object]]":
        with self._children_lock:
            items = list(self._children.items())
        return sorted(items, key=lambda item: item[0])

    def render(self) -> "list[str]":  # pragma: no cover - overridden
        raise NotImplementedError

    def _header(self) -> "list[str]":
        return [
            f"# HELP {self.name} {self.help}",
            f"# TYPE {self.name} {self.kind}",
        ]


class _CounterChild:
    """One label combination of a counter; per-thread shard cells."""

    __slots__ = ("_metric", "_shards")

    def __init__(self, metric: "Counter") -> None:
        self._metric = metric
        self._shards: dict[int, float] = {}

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric._enabled():
            return
        shards = self._shards
        tid = threading.get_ident()
        shards[tid] = shards.get(tid, 0.0) + amount

    def value(self) -> float:
        # Lock-free sum; retry if a brand-new thread inserts its shard key
        # mid-iteration (rare: once per thread per counter).
        while True:
            try:
                return sum(self._shards.values())
            except RuntimeError:
                continue


class Counter(_Metric):
    """A monotonically non-decreasing count, sharded per incrementing thread."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild(self)

    def inc(self, amount: float = 1.0) -> None:
        if self._default is None:
            raise ValueError(f"{self.name} is labelled; use .labels(...).inc()")
        self._default.inc(amount)

    def value(self, *label_values) -> float:
        if not label_values and self._default is not None:
            return self._default.value()
        return self.labels(*label_values).value()

    def render(self) -> "list[str]":
        lines = self._header()
        for key, child in self._sorted_children():
            labels = _render_labels(self.labelnames, key)
            lines.append(
                f"{self.name}{labels} {_format_value(child.value())}"
            )
        return lines


class _GaugeChild:
    __slots__ = ("_metric", "_value", "_lock")

    def __init__(self, metric: "Gauge") -> None:
        self._metric = metric
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if not self._metric._enabled():
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric._enabled():
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Metric):
    """A value that can go up and down (queue depths, WAL bytes, ...)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild(self)

    def set(self, value: float) -> None:
        self._default.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)

    def value(self, *label_values) -> float:
        if not label_values and self._default is not None:
            return self._default.value()
        return self.labels(*label_values).value()

    def render(self) -> "list[str]":
        lines = self._header()
        for key, child in self._sorted_children():
            labels = _render_labels(self.labelnames, key)
            lines.append(
                f"{self.name}{labels} {_format_value(child.value())}"
            )
        return lines


class _HistogramChild:
    __slots__ = ("_metric", "_counts", "_sum", "_total", "_lock")

    def __init__(self, metric: "Histogram") -> None:
        self._metric = metric
        self._counts = [0] * (len(metric.buckets) + 1)  # +Inf bucket last
        self._sum = 0.0
        self._total = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        if not self._metric._enabled():
            return
        index = bisect_left(self._metric.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._total += 1

    def snapshot(self) -> "tuple[list[int], float, int]":
        with self._lock:
            return list(self._counts), self._sum, self._total

    def count(self) -> int:
        with self._lock:
            return self._total

    def sum(self) -> float:
        with self._lock:
            return self._sum


class Histogram(_Metric):
    """Cumulative-bucket distribution of observed values (e.g. latencies)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self.buckets = tuple(sorted(buckets))
        super().__init__(name, help_text, labelnames, registry)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self)

    def observe(self, value: float) -> None:
        if self._default is None:
            raise ValueError(
                f"{self.name} is labelled; use .labels(...).observe()"
            )
        self._default.observe(value)

    def count(self, *label_values) -> int:
        if not label_values and self._default is not None:
            return self._default.count()
        return self.labels(*label_values).count()

    def render(self) -> "list[str]":
        lines = self._header()
        for key, child in self._sorted_children():
            counts, total_sum, total = child.snapshot()
            cumulative = 0
            for bound, count in zip(self.buckets + (_INF,), counts):
                cumulative += count
                le = _render_labels(
                    self.labelnames + ("le",), key + (_format_value(bound),)
                )
                lines.append(f"{self.name}_bucket{le} {cumulative}")
            labels = _render_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{labels} {_format_value(total_sum)}")
            lines.append(f"{self.name}_count{labels} {total}")
        return lines


class MetricsRegistry:
    """Owns metric families by name; renders the Prometheus text exposition."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()
        self.enabled = True

    # ------------------------------------------------------------- creation
    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, Histogram):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = Histogram(
                name, help_text, labelnames, buckets, registry=self
            )
            self._metrics[name] = metric
            return metric

    def _get_or_create(self, cls, name, help_text, labelnames):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help_text, labelnames, registry=self)
            self._metrics[name] = metric
            return metric

    # -------------------------------------------------------------- control
    def set_enabled(self, enabled: bool) -> None:
        """Globally enable/disable recording (scrapes keep working)."""
        self.enabled = bool(enabled)

    def get(self, name: str) -> "_Metric | None":
        with self._lock:
            return self._metrics.get(name)

    # --------------------------------------------------------------- scrape
    def render(self) -> str:
        """The full Prometheus text exposition (families in name order)."""
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


#: The process-wide default registry every instrument records into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def set_enabled(enabled: bool) -> None:
    """Enable/disable recording on the default registry (the kill switch)."""
    REGISTRY.set_enabled(enabled)


def render_metrics() -> str:
    """Prometheus text exposition of the default registry."""
    return REGISTRY.render()
