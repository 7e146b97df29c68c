"""``repro.telemetry``: metrics, tracing, EXPLAIN ANALYZE and slow-query logs.

The cross-cutting observability layer of the serving stack:

* :mod:`repro.telemetry.registry` -- a process-wide metrics registry
  (counters with lock-free per-thread shards, gauges, histograms) rendered
  in Prometheus text format by ``GET /metrics`` and ``repro metrics``;
* :mod:`repro.telemetry.instruments` -- the catalogue of every metric
  family the query, cache, WAL, compaction, scatter and HTTP planes record;
* :mod:`repro.telemetry.trace` -- ``Trace``/``Span`` trees with monotonic
  timings and per-request trace ids (``None`` when disabled: the off path
  is a single pointer test);
* :mod:`repro.telemetry.explain` -- EXPLAIN ANALYZE payload assembly and
  rendering, built on the paper's own ``CursorStats`` counters;
* :mod:`repro.telemetry.slowlog` -- threshold-triggered JSONL trace dumps;
* :mod:`repro.telemetry.latency` -- the bounded-window
  :class:`LatencyRecorder` shared by every serving surface.
"""

from repro.telemetry.latency import (
    DEFAULT_WINDOW,
    LatencyRecorder,
    percentile,
)
from repro.telemetry.registry import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    render_metrics,
    set_enabled,
)
from repro.telemetry.logs import (
    ReopenableLog,
    install_sighup_reopen,
    reopen_all,
)
from repro.telemetry.trace import Span, Trace, new_trace_id
from repro.telemetry.explain import render_explain
from repro.telemetry.slowlog import SlowQueryLog
from repro.telemetry import instruments

__all__ = [
    "DEFAULT_WINDOW",
    "LatencyRecorder",
    "percentile",
    "REGISTRY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "render_metrics",
    "set_enabled",
    "ReopenableLog",
    "install_sighup_reopen",
    "reopen_all",
    "Span",
    "Trace",
    "new_trace_id",
    "render_explain",
    "SlowQueryLog",
    "instruments",
]
