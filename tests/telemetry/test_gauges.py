"""The live-tier gauge families: exact deltas, withdrawal, scrape safety.

The gauges are process-global and several tests (and the engines they
build) move them concurrently, so every assertion here is a *delta* around
the operation it drives -- the same discipline as the counter tests.  What
makes gauges stricter than counters: every instance must withdraw its
contribution on teardown (WAL close, cache unregister), or long-lived
processes drift.
"""

from __future__ import annotations

import threading

from repro.cluster.cache import QueryCache
from repro.corpus.document import ContextNode
from repro.segments import SegmentManager
from repro.segments.wal import WriteAheadLog
from repro.telemetry import instruments
from repro.telemetry.registry import render_metrics


def node(node_id: int, text: str) -> ContextNode:
    return ContextNode.from_text(node_id, text)


def segments_total() -> float:
    """Sum of the per-tier segment gauge children."""
    value = instruments.gauge_snapshot()["repro_segments"]
    return sum(value.values())


# ------------------------------------------------------------------------ WAL
def test_wal_bytes_track_appends_and_close_withdraws(tmp_path):
    gauge = instruments.WAL_BYTES
    before = gauge.value()
    wal = WriteAheadLog(tmp_path / "gauge.wal", sync_every=100)
    wal.append({"op": "add", "node_id": 1})
    wal.append({"op": "delete", "node_id": 1})
    grown = gauge.value() - before
    assert grown == (tmp_path / "gauge.wal").stat().st_size > 0
    wal.close()
    assert gauge.value() == before  # contribution withdrawn


def test_wal_pending_records_follow_the_sync_batch(tmp_path):
    gauge = instruments.WAL_PENDING_RECORDS
    before = gauge.value()
    wal = WriteAheadLog(tmp_path / "pending.wal", sync_every=100)
    wal.append({"op": "add", "node_id": 1})
    wal.append({"op": "add", "node_id": 2})
    assert gauge.value() - before == 2
    wal.sync()
    assert gauge.value() == before
    wal.append({"op": "add", "node_id": 3})
    assert gauge.value() - before == 1
    wal.close()


def test_wal_reset_withdraws_bytes_and_pending(tmp_path):
    bytes_before = instruments.WAL_BYTES.value()
    pending_before = instruments.WAL_PENDING_RECORDS.value()
    wal = WriteAheadLog(tmp_path / "reset.wal", sync_every=100)
    wal.append({"op": "add", "node_id": 1})
    assert instruments.WAL_BYTES.value() > bytes_before
    wal.reset()
    assert instruments.WAL_BYTES.value() == bytes_before
    assert instruments.WAL_PENDING_RECORDS.value() == pending_before
    wal.close()


# ------------------------------------------------------------- memtable/tiers
def test_memtable_docs_rise_with_adds_and_fall_at_seal():
    gauge = instruments.MEMTABLE_DOCS
    before = gauge.value()
    manager = SegmentManager(flush_threshold=3)
    manager.add(node(0, "alpha beta"))
    manager.add(node(1, "beta gamma"))
    assert gauge.value() - before == 2
    manager.add(node(2, "gamma delta"))  # hits the threshold: auto-seal
    assert gauge.value() == before
    assert len(manager.segments) == 1


def test_segment_tier_gauge_follows_seals_and_compaction():
    segments_before = segments_total()
    backlog_before = instruments.COMPACTION_BACKLOG.value()
    manager = SegmentManager(flush_threshold=2, compaction_fanout=4)
    for i in range(4):
        manager.add(node(i, f"tok{i} common"))
    assert len(manager.segments) == 2
    assert segments_total() - segments_before == 2
    # Two 2-doc segments sit in one tier below fanout: no backlog yet.
    assert instruments.COMPACTION_BACKLOG.value() == backlog_before
    for i in range(4, 8):
        manager.add(node(i, f"tok{i} common"))
    assert len(manager.segments) == 4
    assert instruments.COMPACTION_BACKLOG.value() - backlog_before == 1
    report = manager.compact()
    assert report["merges"] >= 1
    assert instruments.COMPACTION_BACKLOG.value() == backlog_before
    assert segments_total() - segments_before == len(manager.segments)


# ------------------------------------------------------------------ the cache
def test_cache_gauges_track_entries_capacity_and_unregister():
    entries = instruments.QUERY_CACHE_ENTRIES
    capacity = instruments.QUERY_CACHE_CAPACITY
    entries_before = entries.value()
    capacity_before = capacity.value()
    cache = QueryCache(capacity=2)
    assert capacity.value() - capacity_before == 2
    cache.put("a", 1)
    cache.put("b", 2)
    assert entries.value() - entries_before == 2
    cache.put("c", 3)  # evicts the LRU entry: net count stays 2
    assert entries.value() - entries_before == 2
    cache.put("c", 4)  # overwrites in place: still 2
    assert entries.value() - entries_before == 2
    cache.unregister()
    assert entries.value() == entries_before
    assert capacity.value() == capacity_before
    cache.put("e", 5)  # post-unregister traffic must not re-register
    assert entries.value() == entries_before


def test_unregister_is_idempotent():
    capacity = instruments.QUERY_CACHE_CAPACITY
    before = capacity.value()
    cache = QueryCache(capacity=8)
    cache.unregister()
    cache.unregister()
    assert capacity.value() == before


# -------------------------------------------------------------- the snapshot
def test_gauge_snapshot_covers_every_family():
    snapshot = instruments.gauge_snapshot()
    for name in (
        "repro_wal_bytes",
        "repro_wal_pending_records",
        "repro_memtable_docs",
        "repro_segments",
        "repro_compaction_backlog",
        "repro_query_cache_entries",
        "repro_query_cache_capacity",
        "repro_http_inflight_requests",
    ):
        assert name in snapshot
    assert "repro_spool_bytes" not in snapshot
    assert isinstance(snapshot["repro_segments"], dict)  # labelled by tier


# -------------------------------------------------------------- scrape safety
def test_scrape_is_safe_while_gauges_move(tmp_path):
    """render_metrics must never tear while writers move gauges underneath."""
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer() -> None:
        count = 0
        while not stop.is_set():
            wal = WriteAheadLog(tmp_path / f"scrape{count % 4}.wal")
            wal.append({"op": "add", "node_id": count})
            wal.close()
            count += 1

    def scraper() -> None:
        try:
            for _ in range(50):
                text = render_metrics()
                assert "repro_wal_bytes" in text
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writer_thread = threading.Thread(target=writer, daemon=True)
    scrapers = [threading.Thread(target=scraper) for _ in range(3)]
    writer_thread.start()
    for thread in scrapers:
        thread.start()
    for thread in scrapers:
        thread.join(timeout=30)
    stop.set()
    writer_thread.join(timeout=30)
    assert not errors
