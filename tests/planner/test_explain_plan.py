"""EXPLAIN carries the physical plan: choices, provenance, est-vs-observed.

The acceptance contract for the planning layer's observability: an
``EXPLAIN ANALYZE`` run shows what the optimizer chose (join order, merge
strategy, access mode), where the plan came from
(``optimized`` / ``cached`` / ``static``), and -- per operator -- the cost
model's estimated op count next to the observed ``CursorStats`` count.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.corpus.collection import Collection
from repro.telemetry.explain import observed_ops, render_explain

QUERY = "'rare' AND 'common'"


@pytest.fixture(scope="module")
def skewed_collection() -> Collection:
    texts = []
    for position in range(200):
        words = []
        if position % 50 == 0:
            words.append("rare")
        if position % 10 != 0:
            words.append("common")
        words.extend(f"filler{position % 5}w{offset}" for offset in range(6))
        texts.append(" ".join(words))
    return Collection.from_texts(texts, name="explain-skew")


def make_engine(collection, **kwargs):
    defaults = dict(scoring="tfidf", access_mode="paper", optimizer="on")
    defaults.update(kwargs)
    return FullTextEngine.from_collection(collection, **defaults)


def test_explain_shows_plan_choices_and_provenance(skewed_collection):
    engine = make_engine(skewed_collection)
    try:
        results = engine.search(QUERY, explain=True)
        plan = results.metadata["explain"]["plan"]
        assert plan["provenance"] == "optimized"
        assert plan["optimizer"] == "on"
        assert plan["merge_strategy"] == "zigzag"  # df 4 vs ~180
        assert plan["join_order"] == ["rare", "common"]
        assert plan["access_mode"] == "fast"  # upgraded for the zig-zag
        assert set(plan["decides"]) >= {"merge_strategy", "join_order"}
        assert plan["estimated_cost"] > 0
    finally:
        engine.close()


def test_explain_operator_rows_pair_estimates_with_observations(
    skewed_collection,
):
    engine = make_engine(skewed_collection)
    try:
        results = engine.search(QUERY, explain=True)
        (shard,) = results.metadata["explain"]["shards"]
        rows = {row["token"]: row for row in shard["operators"]}
        for token in ("rare", "common"):
            row = rows[token]
            assert row["estimated_ops"] > 0
            assert row["planned_role"] in ("lead", "probe")
            # observed_ops is what the estimate is compared against -- it
            # must equal the row's own counts.
            assert row["observed_ops"] == observed_ops(row["counts"])
            assert row["observed_ops"] > 0
    finally:
        engine.close()


def test_repeated_explains_converge_to_cached_provenance(skewed_collection):
    """The first run is ``optimized``; every later run is a ``cached`` memo
    hit with the same choices -- nothing on a static index invalidates it."""
    engine = make_engine(skewed_collection)
    try:
        first = engine.search(QUERY, explain=True)
        assert first.metadata["explain"]["plan"]["provenance"] == "optimized"
        for _ in range(3):
            plan = engine.search(QUERY, explain=True).metadata["explain"]["plan"]
            assert plan["provenance"] == "cached"
            # A memo hit replays, never re-decides.
            assert plan["join_order"] == first.metadata["explain"]["plan"]["join_order"]
    finally:
        engine.close()


def test_off_mode_reports_static_provenance_and_auto_choices(
    skewed_collection,
):
    engine = make_engine(skewed_collection, optimizer="off")
    try:
        plan = engine.search(QUERY, explain=True).metadata["explain"]["plan"]
        assert plan["provenance"] == "static"
        assert plan["optimizer"] == "off"
        assert plan["merge_strategy"] == "auto"
        assert "join_order" not in plan
    finally:
        engine.close()


def test_rendered_explain_includes_the_plan_lines(skewed_collection):
    engine = make_engine(skewed_collection)
    try:
        rendered = render_explain(engine.search(QUERY, explain=True).metadata["explain"])
        assert "provenance=optimized" in rendered
        assert "zigzag" in rendered
        assert "est=" in rendered and "obs=" in rendered
    finally:
        engine.close()


def test_results_carry_the_plan_payload(skewed_collection):
    engine = make_engine(skewed_collection)
    try:
        results = engine.search(QUERY)
        assert results.plan is not None
        assert results.plan["provenance"] == "optimized"
        assert results.top(3).plan == results.plan  # survives the cut
    finally:
        engine.close()


def test_sharded_explain_reports_the_shipped_plan(skewed_collection):
    engine = make_engine(skewed_collection, shards=2, cache_size=None)
    try:
        results = engine.search(QUERY, explain=True)
        plan = results.metadata["explain"]["plan"]
        assert plan["provenance"] == "optimized"
        assert plan["merge_strategy"] == "zigzag"
        assert results.plan["merge_strategy"] == "zigzag"
    finally:
        engine.close()
