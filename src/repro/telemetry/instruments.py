"""The metric catalogue: every family the serving stack records.

All instruments live here, in one place, so importing :mod:`repro.telemetry`
is enough to make every family appear in ``GET /metrics`` (at zero) before
the first event, and so the README's metrics catalogue has a single source
of truth to mirror.

Hot-path discipline: nothing in this module is called per cursor operation.
Cursor-op counters are accumulated by the existing
:class:`~repro.index.cursor.CursorStats` machinery at Python-int speed and
folded into ``repro_cursor_ops_total`` **once per query**
(:func:`observe_query`); the per-op hot loops stay untouched.
"""

from __future__ import annotations

from repro.telemetry.registry import REGISTRY

# ------------------------------------------------------------------ queries
QUERIES_TOTAL = REGISTRY.counter(
    "repro_queries_total",
    "Queries evaluated, by the engine that ran them.",
    ("engine",),
)
QUERY_SECONDS = REGISTRY.histogram(
    "repro_query_seconds",
    "Wall-clock seconds per query evaluation (executor level).",
)
CURSOR_OPS_TOTAL = REGISTRY.counter(
    "repro_cursor_ops_total",
    "Inverted-list cursor operations, by operation kind.",
    ("op",),
)
TOPK_SCORED_TOTAL = REGISTRY.counter(
    "repro_topk_scored_total",
    "Candidates fully scored by the top-k collector.",
)
TOPK_PRUNED_TOTAL = REGISTRY.counter(
    "repro_topk_pruned_total",
    "Candidates skipped by the top-k score upper-bound test.",
)
TOPK_GIVEUPS_TOTAL = REGISTRY.counter(
    "repro_topk_giveups_total",
    "Queries where the top-k bound check disabled itself as fruitless.",
)
PLANS_TOTAL = REGISTRY.counter(
    "repro_plans_total",
    "Physical plans used per query, by provenance: freshly cost-optimized, "
    "static (optimizer off: builtin heuristics), or served from the "
    "planner's memo.",
    ("source",),
)

# -------------------------------------------------------------------- cache
CACHE_LOOKUPS_TOTAL = REGISTRY.counter(
    "repro_cache_lookups_total",
    "Query-cache lookups, by outcome.",
    ("result",),
)
CACHE_EVICTIONS_TOTAL = REGISTRY.counter(
    "repro_cache_evictions_total",
    "Query-cache entries evicted by LRU pressure.",
)

# ------------------------------------------------------------ write planes
WAL_APPENDS_TOTAL = REGISTRY.counter(
    "repro_wal_appends_total",
    "Records appended to any write-ahead log.",
)
WAL_FSYNCS_TOTAL = REGISTRY.counter(
    "repro_wal_fsyncs_total",
    "fsync batches forced on any write-ahead log.",
)
MEMTABLE_SEALS_TOTAL = REGISTRY.counter(
    "repro_memtable_seals_total",
    "Memtables sealed into immutable segments.",
)
COMPACTIONS_TOTAL = REGISTRY.counter(
    "repro_compactions_total",
    "Segment compaction merges completed.",
)
COMPACTION_SECONDS = REGISTRY.histogram(
    "repro_compaction_seconds",
    "Wall-clock seconds per compaction merge.",
)
COMPACTION_SEGMENTS_MERGED_TOTAL = REGISTRY.counter(
    "repro_compaction_segments_merged_total",
    "Source segments consumed by compaction merges.",
)

# ------------------------------------------------------------------ scatter
SCATTER_TASKS_TOTAL = REGISTRY.counter(
    "repro_scatter_tasks_total",
    "Per-shard scatter tasks evaluated (one per shard per scatter).",
)

# ------------------------------------------------------------------- gauges
# Live-tier and server state.  Every gauge is updated with **deltas**
# (``inc``/``dec`` by the exact amount that changed), never absolute
# ``set()``: several instances of a component may coexist in one process
# (one WAL and one segment manager per live shard, one query cache per
# executor), and deltas make their contributions sum correctly.  Components
# that recompute a derived quantity (segments per tier, compaction backlog)
# keep a per-instance record of what they last reported and apply
# ``new - reported`` so the family always equals the sum over open
# instances.  Instance teardown (WAL close, cache unregister) withdraws its
# contribution.
WAL_BYTES = REGISTRY.gauge(
    "repro_wal_bytes",
    "Bytes currently held by open write-ahead logs.",
)
WAL_PENDING_RECORDS = REGISTRY.gauge(
    "repro_wal_pending_records",
    "WAL records appended since the last fsync batch, across open WALs.",
)
MEMTABLE_DOCS = REGISTRY.gauge(
    "repro_memtable_docs",
    "Live documents buffered in mutable memtables (not yet sealed).",
)
SEGMENTS = REGISTRY.gauge(
    "repro_segments",
    "Sealed segments currently live, by compaction tier.",
    ("tier",),
)
COMPACTION_BACKLOG = REGISTRY.gauge(
    "repro_compaction_backlog",
    "Tiers currently holding enough segments to trigger a compaction merge.",
)
QUERY_CACHE_ENTRIES = REGISTRY.gauge(
    "repro_query_cache_entries",
    "Entries resident in query result caches.",
)
QUERY_CACHE_CAPACITY = REGISTRY.gauge(
    "repro_query_cache_capacity",
    "Total entry capacity of open query result caches.",
)
HTTP_INFLIGHT_REQUESTS = REGISTRY.gauge(
    "repro_http_inflight_requests",
    "HTTP requests currently being handled by the server.",
)

#: The gauge families surfaced in the ``/stats`` payload, name -> Gauge.
GAUGES = {
    gauge.name: gauge
    for gauge in (
        WAL_BYTES,
        WAL_PENDING_RECORDS,
        MEMTABLE_DOCS,
        SEGMENTS,
        COMPACTION_BACKLOG,
        QUERY_CACHE_ENTRIES,
        QUERY_CACHE_CAPACITY,
        HTTP_INFLIGHT_REQUESTS,
    )
}


def gauge_snapshot() -> dict:
    """Current value of every gauge family, JSON-shaped for ``/stats``.

    Unlabelled families map to a number; labelled families map to a dict of
    ``label=value`` keys (e.g. ``{"tier=0": 3.0}``).
    """
    snapshot: dict = {}
    for name, gauge in GAUGES.items():
        if not gauge.labelnames:
            snapshot[name] = gauge.value()
            continue
        children: dict = {}
        for key, child in gauge._sorted_children():
            label = ",".join(
                f"{label_name}={value}"
                for label_name, value in zip(gauge.labelnames, key)
            )
            children[label] = child.value()
        snapshot[name] = children
    return snapshot


# --------------------------------------------------------------------- http
HTTP_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests served, by route and status code.",
    ("path", "status"),
)
HTTP_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "Wall-clock seconds per HTTP request, by route.",
    ("path",),
)
SLOW_QUERIES_TOTAL = REGISTRY.counter(
    "repro_slow_queries_total",
    "Searches that exceeded the slow-query threshold.",
)

#: Routes allowed as ``path`` label values; anything else collapses to
#: "other" so unknown paths cannot explode label cardinality.
_KNOWN_PATHS = frozenset(("/search", "/health", "/stats", "/metrics"))


def http_path_label(path: str) -> str:
    """Collapse arbitrary request paths onto a bounded label set."""
    return path if path in _KNOWN_PATHS else "other"


def observe_query(engine_name, elapsed_seconds, cursor_stats, collector):
    """Fold one query's counters into the registry (called once per query)."""
    if not REGISTRY.enabled:
        return
    QUERIES_TOTAL.labels(engine_name).inc()
    QUERY_SECONDS.observe(elapsed_seconds)
    if cursor_stats is not None:
        if cursor_stats.next_entry_calls:
            CURSOR_OPS_TOTAL.labels("next_entry").inc(
                cursor_stats.next_entry_calls
            )
        if cursor_stats.get_positions_calls:
            CURSOR_OPS_TOTAL.labels("get_positions").inc(
                cursor_stats.get_positions_calls
            )
        if cursor_stats.positions_returned:
            CURSOR_OPS_TOTAL.labels("positions_returned").inc(
                cursor_stats.positions_returned
            )
        if cursor_stats.seek_calls:
            CURSOR_OPS_TOTAL.labels("seek").inc(cursor_stats.seek_calls)
        if cursor_stats.seek_probes:
            CURSOR_OPS_TOTAL.labels("seek_probe").inc(cursor_stats.seek_probes)
    if collector is not None:
        if collector.scored:
            TOPK_SCORED_TOTAL.inc(collector.scored)
        if collector.pruned:
            TOPK_PRUNED_TOTAL.inc(collector.pruned)
        if collector.gave_up:
            TOPK_GIVEUPS_TOTAL.inc()
