"""Latency accounting shared by every serving surface.

Percentile windows are telemetry, not an HTTP-server detail: the HTTP
service (``repro serve-http``), the ingest loop (``repro ingest
--queries``) and the replay harness (``repro replay``) all report through
the same arithmetic.

Two conventions bind every user:

* Percentiles come from a **bounded window** of the most recent requests
  (:data:`DEFAULT_WINDOW`), so a long-running server neither grows nor
  re-sorts an unbounded list; the mean and the count cover *every* request
  ever recorded.
* :func:`percentile` is the nearest-rank variant:
  ``sorted_values[min(len - 1, int(fraction * len))]`` -- no
  interpolation.  An **empty window yields ``None``** (and ``/stats``
  renders ``null``): before the first request there is no latency to
  report, and ``0.0`` read as "we answered in zero milliseconds".
"""

from __future__ import annotations

import threading
from collections import deque

#: Recent-request window backing the percentile estimates.
DEFAULT_WINDOW = 10_000


def percentile(sorted_values, fraction: float) -> "float | None":
    """Nearest-rank percentile of an already-sorted sequence (None if empty)."""
    if not sorted_values:
        return None
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[rank]


class LatencyRecorder:
    """Bounded-window latency statistics for one endpoint or serving loop.

    Thread-safe: the HTTP server records from the event-loop thread while
    ``/stats`` snapshots may be rendered from the engine worker thread.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._recent: "deque[float]" = deque(maxlen=window)
        self._count = 0
        self._total_ms = 0.0
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        """Record one request's wall-clock latency in milliseconds."""
        with self._lock:
            self._recent.append(latency_ms)
            self._count += 1
            self._total_ms += latency_ms

    @property
    def count(self) -> int:
        """Requests recorded over the recorder's lifetime (not the window)."""
        return self._count

    def mean_ms(self) -> float:
        """Lifetime mean latency in milliseconds (0.0 before any request)."""
        with self._lock:
            return self._total_ms / self._count if self._count else 0.0

    def percentile_ms(self, fraction: float) -> "float | None":
        """Nearest-rank percentile over the recent window (None when empty)."""
        with self._lock:
            ordered = sorted(self._recent)
        return percentile(ordered, fraction)

    def snapshot(self) -> "dict[str, float | None]":
        """The stats dictionary every serving surface reports.

        One sort serves all three percentiles; ``count``/``mean_ms`` are
        lifetime figures while p50/p95/p99 describe the recent window
        (``None`` -- JSON ``null`` -- before the first request).
        """
        with self._lock:
            ordered = sorted(self._recent)
            count = self._count
            total = self._total_ms
        return {
            "count": count,
            "mean_ms": total / count if count else 0.0,
            "p50_ms": percentile(ordered, 0.50),
            "p95_ms": percentile(ordered, 0.95),
            "p99_ms": percentile(ordered, 0.99),
        }


def _fmt_ms(value: "float | None") -> str:
    return "n/a" if value is None else f"{value:.2f} ms"
