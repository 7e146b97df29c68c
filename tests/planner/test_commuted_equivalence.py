"""Commuted queries: bit-identical results and shared cache entries.

The IR's promise (``'a' AND 'b'`` is the same logical plan as
``'b' AND 'a'``) must hold at every layer that keys on it: the returned
rankings are byte-identical, the cluster's result cache serves the second
spelling from the first spelling's entry, and the planner memo builds one
plan for the whole commutation class.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine

BASE = "'alpha' AND 'beta' AND 'gamma'"
COMMUTED = [
    "'beta' AND 'alpha' AND 'gamma'",
    "'gamma' AND ('beta' AND 'alpha')",
    "('alpha' AND 'gamma') AND 'beta'",
]


def ranking(results):
    return [(r.node_id, r.score) for r in results]


OPTIMIZERS = ["off", "on"]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_commuted_queries_return_bit_identical_rankings(
    small_synthetic, optimizer
):
    engine = FullTextEngine.from_collection(
        small_synthetic, scoring="tfidf", access_mode="fast", optimizer=optimizer
    )
    reference = ranking(engine.search(BASE))
    assert reference  # the planted tokens co-occur
    for variant in COMMUTED:
        assert ranking(engine.search(variant)) == reference
    engine.close()


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_commuted_queries_share_one_result_cache_entry(
    small_synthetic, optimizer
):
    engine = FullTextEngine.from_collection(
        small_synthetic,
        scoring="tfidf",
        access_mode="fast",
        shards=2,
        cache_size=64,
        optimizer=optimizer,
    )
    reference = ranking(engine.search(BASE))
    for variant in COMMUTED:
        assert ranking(engine.search(variant)) == reference
    stats = engine.cache_stats()
    # One miss fills the entry; every commuted spelling after it is a hit.
    assert stats["misses"] == 1
    assert stats["hits"] == len(COMMUTED)
    assert stats["hit_rate"] == pytest.approx(
        len(COMMUTED) / (len(COMMUTED) + 1)
    )
    engine.close()


def test_commuted_queries_share_one_planner_memo_entry(small_synthetic):
    engine = FullTextEngine.from_collection(
        small_synthetic, scoring="tfidf", access_mode="fast", optimizer="on"
    )
    engine.search(BASE)
    for variant in COMMUTED:
        engine.search(variant)
    summary = engine.optimizer_stats()
    assert summary["mode"] == "on"
    assert summary["plans_built"] == 1
    assert summary["memo_hits"] == len(COMMUTED)
    engine.close()


def test_distinct_queries_do_not_collide_in_the_cache(small_synthetic):
    engine = FullTextEngine.from_collection(
        small_synthetic,
        scoring="tfidf",
        access_mode="fast",
        shards=2,
        cache_size=64,
        optimizer="on",
    )
    engine.search("'alpha' AND 'beta'")
    engine.search("'alpha' AND 'gamma'")  # different token set: new entry
    engine.search("'alpha' OR 'beta'")  # different operator: new entry
    stats = engine.cache_stats()
    assert stats["misses"] == 3
    assert stats["hits"] == 0
    engine.close()
