"""An LRU result cache for the scatter-gather query service.

Keys are built from everything that determines the answer: the *canonical*
plan IR text (:func:`repro.planner.ir.canonical_key` -- AND/OR chains
flattened and operand order normalised, so commuted variants like
``b AND a`` vs ``a AND b`` share one entry), the forced engine, the cursor
access mode, the scoring backend, the NPRED order strategy and the index
generation.

The top-k cut is deliberately **not** part of the key: exact top-k rankings
are prefixes of each other, so one entry computed at ``k=10`` can serve any
request with ``k <= 10`` (see the ``accept`` hook of :meth:`QueryCache.get`
and the coverage check in :mod:`repro.cluster.scatter`).  An entry that is
*too narrow* for the requested ``k`` counts as a miss and is overwritten by
the wider recomputation, so entries only ever grow toward the full ranking.

Nothing is ever invalidated: a write that may change results moves the
index generation, and a new node can change global document frequencies, so
*every* entry keyed on the old generation is suspect, not just entries
mentioning the node's tokens.  They simply become unreachable and age out of
the LRU.  Hit / miss / eviction counters feed the ``repro serve`` session
statistics.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.exceptions import ClusterError
from repro.telemetry import instruments

#: Default number of cached query results.
DEFAULT_CACHE_SIZE = 128


def make_cache_key(
    plan_text: str,
    engine: str,
    access_mode: str,
    scoring: str,
    npred_orders: str,
    generation: int,
) -> tuple:
    """The canonical cache key for one query execution (top-k excluded).

    ``plan_text`` is the canonical plan-IR rendering of the query, not its
    surface text -- callers pass ``canonical_key(query)``; ``generation`` is
    the index generation the answer was computed at.
    """
    return (plan_text, engine, access_mode, scoring, npred_orders, generation)


class QueryCache:
    """A bounded, thread-safe LRU mapping of query keys to merged results."""

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ClusterError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._unregistered = False
        if instruments.REGISTRY.enabled:
            instruments.QUERY_CACHE_CAPACITY.inc(capacity)

    def get(
        self, key: Hashable, accept: "Callable[[Any], bool] | None" = None
    ) -> Any | None:
        """The cached value for ``key`` (refreshing its recency) or ``None``.

        ``accept`` lets the caller reject an entry that exists but cannot
        serve the request (e.g. a top-k ranking prefix narrower than the
        requested ``k``); a rejected entry counts as a miss and keeps its
        LRU position, and the caller is expected to overwrite it with the
        wider recomputation.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None or (accept is not None and not accept(value)):
                self.misses += 1
                if instruments.REGISTRY.enabled:
                    instruments.CACHE_LOOKUPS_TOTAL.labels("miss").inc()
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if instruments.REGISTRY.enabled:
                instruments.CACHE_LOOKUPS_TOTAL.labels("hit").inc()
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``value``, evicting the least-recently-used entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if instruments.REGISTRY.enabled:
                    instruments.CACHE_EVICTIONS_TOTAL.inc()
                    if not self._unregistered:
                        instruments.QUERY_CACHE_ENTRIES.dec()
            self._entries[key] = value
            if instruments.REGISTRY.enabled and not self._unregistered:
                instruments.QUERY_CACHE_ENTRIES.inc()

    def unregister(self) -> None:
        """Withdraw this cache's contribution to the shared gauges.

        Called when the owning executor closes: the gauge families count
        *open* caches, so a retired cache must not keep inflating them.
        Idempotent; the cache itself keeps working afterwards.
        """
        with self._lock:
            if self._unregistered:
                return
            self._unregistered = True
            if instruments.REGISTRY.enabled:
                instruments.QUERY_CACHE_CAPACITY.dec(self.capacity)
                if self._entries:
                    instruments.QUERY_CACHE_ENTRIES.dec(len(self._entries))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, float]:
        """Counters plus the hit rate over all lookups so far.

        Taken under the cache lock so the snapshot is internally consistent
        even while another thread (a server's engine thread, say) is
        hitting the cache.
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            lookups = hits + misses
            return {
                "capacity": self.capacity,
                "size": len(self._entries),
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": (hits / lookups) if lookups else 0.0,
            }

    @staticmethod
    def empty_stats() -> dict[str, float]:
        """The all-zero stats shape reported when caching is disabled."""
        return {
            "capacity": 0,
            "size": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }
