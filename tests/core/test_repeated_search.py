"""A workload of searches through the facade, in both cursor access modes.

Each search is answered on its own: a repeated query is served from the
result cache with the answer and cursor counts its first run computed, a
``top_k`` cut is the prefix of the full ranking, and the counts a search
reports are its own query's, never another's.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus.collection import Collection
from repro.engine.executor import Executor
from repro.index import InvertedIndex


TEXTS = [
    "usability testing of efficient software",
    "software measures how well users achieve task completion",
    "efficient databases make retrieval fast",
    "software usability and software testing",
]

QUERIES = [
    "'software' AND 'usability'",
    "'software' AND 'usability'",  # repeated on purpose: a cache hit
    "dist('task', 'completion', 0)",
    "'efficient' OR 'databases'",
]


@pytest.fixture(scope="module", params=["paper", "fast"])
def access_mode(request) -> str:
    return request.param


def make_engine(access_mode: str, cache_size: int | None) -> FullTextEngine:
    return FullTextEngine(
        InvertedIndex(Collection.from_texts(TEXTS)),
        scoring="tfidf",
        access_mode=access_mode,
        cache_size=cache_size,
    )


@pytest.fixture
def engine(access_mode) -> FullTextEngine:
    """A fresh cached engine per test, so its result cache starts empty."""
    return make_engine(access_mode, cache_size=32)


def test_repeated_searches_match_an_uncached_engine(engine, access_mode):
    uncached = make_engine(access_mode, cache_size=None)
    cached = [engine.search(query) for query in QUERIES]
    fresh = [uncached.search(query) for query in QUERIES]
    assert [r.metadata["cache"] for r in cached] == ["miss", "hit", "miss", "miss"]
    assert [[r.node_id for r in c] for c in cached] == [
        [r.node_id for r in f] for f in fresh
    ]
    assert [c.engine for c in cached] == [f.engine for f in fresh]
    for c, f in zip(cached, fresh):
        assert [r.score for r in c] == [r.score for r in f]


def test_search_respects_top_k(engine):
    for query in QUERIES:
        full = engine.search(query)
        cut = engine.search(query, top_k=1)
        assert len(cut.results) <= 1
        assert [(r.node_id, r.score) for r in cut] == [
            (r.node_id, r.score) for r in full
        ][:1]
        assert cut.total_matches == full.total_matches


def test_search_reports_per_query_stats(engine, access_mode):
    """Every search's cursor counts are those of its query run alone on a
    fresh executor; earlier searches leave nothing behind in them."""
    standalone = Executor(
        InvertedIndex(Collection.from_texts(TEXTS)), access_mode=access_mode
    )
    results = [engine.search(query) for query in QUERIES]
    with_stats = [r for r in results if r.cursor_stats is not None]
    assert with_stats, "cursor-backed engines must report stats"
    for text, result in zip(QUERIES, results):
        alone = standalone.execute(parse_query(text).node)
        if result.cursor_stats is None:
            assert alone.cursor_stats is None
            continue
        assert (
            result.cursor_stats.as_extended_dict()
            == alone.cursor_stats.as_extended_dict()
        )
