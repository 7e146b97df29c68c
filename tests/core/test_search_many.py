"""Tests for the batch search entry points and the access-mode plumbing."""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.engine.executor import Executor
from repro.exceptions import EvaluationError
from repro.index import InvertedIndex


TEXTS = [
    "usability testing of efficient software",
    "software measures how well users achieve task completion",
    "efficient databases make retrieval fast",
    "software usability and software testing",
]

QUERIES = [
    "'software' AND 'usability'",
    "'software' AND 'usability'",  # repeated on purpose: exercises the plan cache
    "dist('task', 'completion', 0)",
    "'efficient' OR 'databases'",
]


@pytest.fixture(scope="module", params=["paper", "fast"])
def engine(request) -> FullTextEngine:
    return FullTextEngine.from_texts(
        TEXTS, scoring="tfidf", access_mode=request.param
    )


def test_search_many_matches_individual_searches(engine):
    batch = engine.search_many(QUERIES)
    singles = [engine.search(query) for query in QUERIES]
    assert [[r.node_id for r in b] for b in batch] == [
        [r.node_id for r in s] for s in singles
    ]
    assert [b.engine for b in batch] == [s.engine for s in singles]
    for b, s in zip(batch, singles):
        for rb, rs in zip(b, s):
            assert rb.score == pytest.approx(rs.score)


def test_search_many_respects_top_k(engine):
    batch = engine.search_many(QUERIES, top_k=1)
    assert all(len(b.results) <= 1 for b in batch)


def test_search_many_reports_per_query_stats(engine):
    batch = engine.search_many(QUERIES)
    with_stats = [b for b in batch if b.cursor_stats is not None]
    assert with_stats, "cursor-backed engines must report stats"
    singles = [engine.search(query) for query in QUERIES]
    for b, s in zip(batch, singles):
        if b.cursor_stats is None:
            assert s.cursor_stats is None
            continue
        # The shared factory must not leak other queries' charges into this
        # query's delta.
        assert b.cursor_stats.as_extended_dict() == s.cursor_stats.as_extended_dict()


def test_execute_many_uses_the_plan_cache(monkeypatch):
    from repro.corpus.collection import Collection

    executor = Executor(InvertedIndex(Collection.from_texts(TEXTS)))
    calls = {"count": 0}
    from repro.engine.plan import extract_plan as real_extract_plan

    def counting_extract_plan(query, registry):
        calls["count"] += 1
        return real_extract_plan(query, registry)

    monkeypatch.setattr(
        "repro.engine.plan.extract_plan", counting_extract_plan
    )
    from repro.core.query import parse_query

    query = parse_query("dist('task', 'completion', 0)", "dist").node
    results = executor.execute_many([query, query, query])
    assert len(results) == 3
    assert calls["count"] == 1  # planned once, replayed from the cache
    assert [r.node_ids for r in results] == [results[0].node_ids] * 3


def test_engine_rejects_unknown_access_mode():
    with pytest.raises(EvaluationError):
        FullTextEngine.from_texts(TEXTS, access_mode="warp")


def test_facade_exposes_access_mode():
    engine = FullTextEngine.from_texts(TEXTS, access_mode="fast")
    assert engine.access_mode == "fast"
    assert engine._coordinator.access_mode == "fast"
