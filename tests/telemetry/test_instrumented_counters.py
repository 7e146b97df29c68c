"""End-to-end counter wiring: every layer reports into the shared registry.

The instruments are process-global, so these tests assert *deltas* around
the operations they drive, never absolute values -- other tests in the same
session legitimately move the counters too.
"""

from __future__ import annotations

import threading

from repro.core.engine import FullTextEngine
from repro.corpus import Collection
from repro.telemetry import instruments
from repro.telemetry.registry import render_metrics

QUERY = "'usability' AND 'software'"


def make_engine(collection, **kwargs):
    defaults = dict(scoring="tfidf", access_mode="fast")
    defaults.update(kwargs)
    return FullTextEngine.from_collection(collection, **defaults)


def test_query_counters_advance_per_search(collection):
    engine = make_engine(collection)
    try:
        queries_before = instruments.QUERIES_TOTAL.value("bool")
        latency_before = instruments.QUERY_SECONDS.count()
        next_before = instruments.CURSOR_OPS_TOTAL.value("next_entry")
        results = engine.search(QUERY)
        assert instruments.QUERIES_TOTAL.value("bool") == queries_before + 1
        assert instruments.QUERY_SECONDS.count() == latency_before + 1
        grew = instruments.CURSOR_OPS_TOTAL.value("next_entry") - next_before
        assert grew == results.cursor_stats.next_entry_calls > 0
    finally:
        engine.close()


def test_topk_counters_track_the_collector(collection):
    engine = make_engine(collection)
    try:
        scored_before = instruments.TOPK_SCORED_TOTAL.value()
        results = engine.search(QUERY, top_k=3, explain=True)
        top_k = results.metadata["explain"]["top_k"]
        scored_delta = instruments.TOPK_SCORED_TOTAL.value() - scored_before
        assert scored_delta == top_k["scored"] > 0
    finally:
        engine.close()


def test_cache_counters_see_miss_hit_eviction_and_writes(collection):
    engine = make_engine(  # a private copy: the write must not leak
        Collection.from_nodes(list(collection), name="counted"),
        shards=2, cache_size=1,
    )
    try:
        miss_before = instruments.CACHE_LOOKUPS_TOTAL.value("miss")
        hit_before = instruments.CACHE_LOOKUPS_TOTAL.value("hit")
        evict_before = instruments.CACHE_EVICTIONS_TOTAL.value()

        engine.search(QUERY, top_k=3)  # miss, fills the single slot
        engine.search(QUERY, top_k=3)  # hit
        engine.search("'usability'", top_k=3)  # miss, evicts the first entry
        engine.add_document("usability first")  # moves the generation
        engine.search("'usability'", top_k=3)  # miss, evicts the stale entry

        assert instruments.CACHE_LOOKUPS_TOTAL.value("miss") == miss_before + 3
        assert instruments.CACHE_LOOKUPS_TOTAL.value("hit") == hit_before + 1
        assert instruments.CACHE_EVICTIONS_TOTAL.value() == evict_before + 2
    finally:
        engine.close()


def test_the_catalogue_has_no_invalidation_family():
    """Writes move ``index.generation`` instead of flushing caches, so the
    wholesale-invalidation counter is gone from the catalogue."""
    assert instruments.REGISTRY.get("repro_cache_invalidations_total") is None
    assert instruments.REGISTRY.get("repro_cache_evictions_total") is not None
    assert "repro_cache_invalidations_total" not in render_metrics()


def test_scatter_task_counter_counts_shards_per_query(collection):
    engine = make_engine(collection, shards=3, cache_size=0)
    try:
        assert instruments.SCATTER_TASKS_TOTAL.labelnames == ()
        before = instruments.SCATTER_TASKS_TOTAL.value()
        engine.search(QUERY)
        assert instruments.SCATTER_TASKS_TOTAL.value() == before + 3
        engine.search("'usability'")  # one task per shard per execute
        assert instruments.SCATTER_TASKS_TOTAL.value() == before + 6
    finally:
        engine.close()


def test_wal_fsync_counter_counts_batches(tmp_path):
    from repro.segments.wal import WriteAheadLog

    appends_before = instruments.WAL_APPENDS_TOTAL.value()
    fsyncs_before = instruments.WAL_FSYNCS_TOTAL.value()
    wal = WriteAheadLog(tmp_path / "wal.jsonl", sync_every=2)
    for seq in range(5):
        wal.append({"seq": seq})
    wal.close()  # the close-time sync commits the trailing odd record
    assert instruments.WAL_APPENDS_TOTAL.value() == appends_before + 5
    assert instruments.WAL_FSYNCS_TOTAL.value() == fsyncs_before + 3


def test_write_plane_counters_wal_seals_compactions(collection, tmp_path):
    appends_before = instruments.WAL_APPENDS_TOTAL.value()
    seals_before = instruments.MEMTABLE_SEALS_TOTAL.value()
    compactions_before = instruments.COMPACTIONS_TOTAL.value()
    merged_before = instruments.COMPACTION_SEGMENTS_MERGED_TOTAL.value()

    engine = make_engine(
        collection, live=True, live_dir=tmp_path / "live", flush_threshold=4
    )
    try:
        for index in range(12):
            engine.add_document(f"usability software probe {index}")
        engine.flush()
        report = engine.compact()
    finally:
        engine.close()

    assert instruments.WAL_APPENDS_TOTAL.value() >= appends_before + 12
    assert instruments.MEMTABLE_SEALS_TOTAL.value() >= seals_before + 3
    assert (
        instruments.COMPACTIONS_TOTAL.value()
        == compactions_before + report["merges"]
    )
    assert (
        instruments.COMPACTION_SEGMENTS_MERGED_TOTAL.value()
        == merged_before + report["segments_merged"]
    )
    assert instruments.COMPACTION_SECONDS.count() > 0


def test_scrape_is_monotonic_under_mixed_load(collection, tmp_path):
    """Counters never go backwards while a searching thread, a live-index
    writer (WAL + seals + compaction) and the scraper all run at once."""
    searcher = make_engine(collection, shards=2, cache_size=8)
    writer = make_engine(
        collection, live=True, live_dir=tmp_path / "live", flush_threshold=4
    )
    watched = (
        lambda: instruments.QUERIES_TOTAL.value("bool"),
        lambda: instruments.CURSOR_OPS_TOTAL.value("next_entry"),
        lambda: instruments.SCATTER_TASKS_TOTAL.value(),
        lambda: instruments.WAL_APPENDS_TOTAL.value(),
        lambda: instruments.MEMTABLE_SEALS_TOTAL.value(),
        lambda: instruments.COMPACTIONS_TOTAL.value(),
    )
    stop = threading.Event()
    violations: list[int] = []
    errors: list[BaseException] = []

    def scrape() -> None:
        last = [reader() for reader in watched]
        while not stop.is_set():
            render_metrics()  # the full exposition must never crash mid-load
            current = [reader() for reader in watched]
            for index, (prev, now) in enumerate(zip(last, current)):
                if now < prev:
                    violations.append(index)
            last = current

    def run(target) -> None:
        try:
            target()
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def query_loop() -> None:
        for _ in range(25):
            searcher.search(QUERY, top_k=5)

    def write_loop() -> None:
        for index in range(40):
            writer.add_document(f"usability software churn {index}")
            if index % 8 == 7:
                writer.flush()
        writer.compact()

    scraper = threading.Thread(target=scrape)
    workers = [
        threading.Thread(target=run, args=(query_loop,)),
        threading.Thread(target=run, args=(write_loop,)),
    ]
    scraper.start()
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    finally:
        stop.set()
        scraper.join()
        searcher.close()
        writer.close()
    assert not errors, errors
    assert not violations, f"counters went backwards at indexes {set(violations)}"
