"""Telemetry's hot-path cost, counted rather than timed.

The design promise: cursor operations accumulate in ``CursorStats`` ints and
fold into the registry once per query, so the number of metric updates a
search makes does not grow with the work it does; and with the kill switch
off a search records nothing at all.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.corpus.collection import Collection
from repro.telemetry import registry
from repro.telemetry.registry import REGISTRY, render_metrics

#: ~10 matches and 600 matches over the same index.
NARROW_QUERY = "'rare' AND 'common'"
BROAD_QUERY = "'common' AND 'filler'"


@pytest.fixture(scope="module")
def engine():
    texts = [
        " ".join(
            (["rare"] if position % 60 == 0 else [])
            + ["common", "filler", f"pad{position % 9}"]
        )
        for position in range(600)
    ]
    engine = FullTextEngine.from_collection(
        Collection.from_texts(texts), scoring="tfidf", access_mode="paper"
    )
    yield engine
    engine.close()


@pytest.fixture
def update_count(monkeypatch):
    """Counts every inc/observe/set reaching a registry child cell."""
    calls = []

    def counting(method):
        def wrapper(self, *args, **kwargs):
            calls.append(method.__name__)
            return method(self, *args, **kwargs)

        return wrapper

    for cls, name in (
        (registry._CounterChild, "inc"),
        (registry._GaugeChild, "inc"),
        (registry._GaugeChild, "set"),
        (registry._HistogramChild, "observe"),
    ):
        monkeypatch.setattr(cls, name, counting(getattr(cls, name)))
    return calls


def _updates_for(engine, query, calls) -> tuple[int, int]:
    del calls[:]
    matches = engine.search(query).total_matches
    return matches, len(calls)


def test_metric_updates_per_search_do_not_grow_with_matches(engine, update_count):
    engine.search(NARROW_QUERY)  # warm the plan cache for both queries
    engine.search(BROAD_QUERY)
    narrow_matches, narrow_updates = _updates_for(engine, NARROW_QUERY, update_count)
    broad_matches, broad_updates = _updates_for(engine, BROAD_QUERY, update_count)
    assert narrow_matches == 10
    assert broad_matches >= 500
    assert narrow_updates > 0
    assert broad_updates == narrow_updates


def test_metric_updates_per_sharded_search_do_not_grow_with_matches(
    engine, update_count
):
    sharded = FullTextEngine.from_collection(
        engine.collection,
        scoring="tfidf",
        access_mode="paper",
        shards=3,
        cache_size=None,  # every search scatters; none is a cache hit
    )
    try:
        sharded.search(NARROW_QUERY)
        sharded.search(BROAD_QUERY)
        narrow_matches, narrow_updates = _updates_for(
            sharded, NARROW_QUERY, update_count
        )
        broad_matches, broad_updates = _updates_for(
            sharded, BROAD_QUERY, update_count
        )
    finally:
        sharded.close()
    assert narrow_matches == 10
    assert broad_matches >= 500
    assert narrow_updates > 0
    assert broad_updates == narrow_updates


def test_kill_switch_leaves_every_scraped_value_unchanged(engine):
    before = render_metrics()
    REGISTRY.set_enabled(False)
    try:
        engine.search(BROAD_QUERY)
        engine.search(NARROW_QUERY, top_k=3)
    finally:
        REGISTRY.set_enabled(True)
    assert render_metrics() == before
