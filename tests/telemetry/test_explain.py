"""EXPLAIN ANALYZE contract: counts pin CursorStats, results stay identical."""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.index.cursor import CursorStats
from repro.telemetry.explain import render_explain, sum_counts

QUERY = "'usability' AND 'software'"
DIST_QUERY = "dist('usability', 'software', 40)"


def make_engine(collection, **kwargs):
    defaults = dict(scoring="tfidf", access_mode="paper")
    defaults.update(kwargs)
    return FullTextEngine.from_collection(collection, **defaults)


def assert_same_results(plain, explained):
    assert [(r.node_id, r.score) for r in plain.results] == [
        (r.node_id, r.score) for r in explained.results
    ]
    assert plain.engine == explained.engine
    assert plain.total_matches == explained.total_matches


def only_shard(payload: dict) -> dict:
    """A single index's EXPLAIN: the one-shard scatter around its subtree."""
    assert payload["operator"] == "scatter"
    assert payload["shard_count"] == 1
    (shard,) = payload["shards"]
    assert shard["operator"] == "execute"
    assert shard["cursor_totals"] == payload["cursor_totals"]
    return shard


# ------------------------------------------------------------- single index
def test_explain_counts_equal_cursor_stats_delta(collection):
    engine = make_engine(collection)
    try:
        results = engine.search(QUERY, explain=True)
        payload = only_shard(results.metadata["explain"])
        operator_sum = sum_counts(payload["operators"]).as_extended_dict()
        assert operator_sum == payload["cursor_totals"]
        assert operator_sum == results.cursor_stats.as_extended_dict()
        assert operator_sum["next_entry_calls"] > 0
        tokens = {row["token"] for row in payload["operators"]}
        assert tokens == {"usability", "software"}
    finally:
        engine.close()


def test_explained_results_bit_identical_to_plain(collection):
    engine = make_engine(collection)
    try:
        plain = engine.search(QUERY, top_k=5)
        explained = engine.search(QUERY, top_k=5, explain=True)
        assert_same_results(plain, explained)
        assert "explain" not in plain.metadata
        # rows_produced counts evaluation output rows, before the top-k cut
        # is applied to the returned prefix.
        assert (
            explained.metadata["explain"]["rows_produced"]
            == explained.total_matches
        )
    finally:
        engine.close()


def test_explain_reports_topk_collector(collection):
    engine = make_engine(collection)
    try:
        results = engine.search(QUERY, top_k=3, explain=True)
        top_k = results.metadata["explain"]["top_k"]
        assert top_k["k"] == 3
        assert top_k["scored"] >= len(results)
        assert top_k["pruned"] >= 0
        assert isinstance(top_k["gave_up"], bool)
    finally:
        engine.close()


@pytest.mark.parametrize("access_mode", ["paper", "fast"])
def test_explain_shape_is_stable_across_access_modes(collection, access_mode):
    engine = make_engine(collection, access_mode=access_mode)
    try:
        description = engine.explain(QUERY, analyze=True, top_k=5)
        payload = description["analyze"]
        assert payload["access_mode"] == access_mode
        assert payload["engine"] == "bool"
        assert payload["language_class"] == "BOOL-NONEG"
        assert {row["token"] for row in only_shard(payload)["operators"]} == {
            "usability",
            "software",
        }
        rendered = render_explain(payload)
        assert rendered.startswith("EXPLAIN ANALYZE")
        assert "scatter shards=1 cache=off" in rendered
        assert "cursor totals:" in rendered
        assert "top-k: k=5" in rendered
        # The shard subtree renders exactly as a standalone executor's tree.
        shard_tree = render_explain(only_shard(payload)).splitlines()[3:]
        assert all(line in rendered for line in shard_tree)
    finally:
        engine.close()


def test_explain_distance_query_counts_positions(collection):
    engine = make_engine(collection)
    try:
        results = engine.search(DIST_QUERY, explain=True)
        payload = only_shard(results.metadata["explain"])
        totals = payload["cursor_totals"]
        assert totals["get_positions_calls"] > 0
        assert totals == sum_counts(payload["operators"]).as_extended_dict()
        assert payload["engine"] in ("ppred", "npred", "comp")
    finally:
        engine.close()


# ----------------------------------------------------------------- cluster
def test_cluster_explain_aggregates_shards_and_bypasses_cache(collection):
    engine = make_engine(collection, shards=3, cache_size=32)
    try:
        warm = engine.search(QUERY, top_k=5)  # populate the cache
        explained = engine.search(QUERY, top_k=5, explain=True)
        assert explained.metadata["cache"] == "bypass"
        assert_same_results(warm, explained)

        payload = explained.metadata["explain"]
        assert payload["operator"] == "scatter"
        assert "workers" not in payload
        assert payload["cache"] == "bypass"
        assert payload["shard_count"] == 3
        assert len(payload["shards"]) == 3

        merged = CursorStats()
        for shard in payload["shards"]:
            shard_sum = sum_counts(shard["operators"]).as_extended_dict()
            assert shard_sum == shard["cursor_totals"]
            merged.merge(sum_counts(shard["operators"]))
        assert merged.as_extended_dict() == payload["cursor_totals"]

        top_k = payload["top_k"]
        assert top_k["k"] == 5
        assert top_k["scored"] >= len(explained)

        rendered = render_explain(payload)
        assert "scatter shards=3 cache=bypass" in rendered
        assert "workers=" not in rendered
        assert all(f"shard {shard}:" in rendered for shard in range(3))
    finally:
        engine.close()


def test_cluster_explain_does_not_poison_the_cache(collection):
    engine = make_engine(collection, shards=2, cache_size=32)
    try:
        engine.search(QUERY, top_k=5, explain=True)
        first = engine.search(QUERY, top_k=5)
        assert first.metadata["cache"] == "miss"  # bypass really bypassed
        second = engine.search(QUERY, top_k=5)
        assert second.metadata["cache"] == "hit"
        assert_same_results(first, second)
    finally:
        engine.close()
