"""Tests for the scatter-gather executor, heap merge and result cache."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import (
    MergedEvaluationResult,
    QueryCache,
    ScatterGatherExecutor,
    ShardedIndex,
    merge_cursor_stats,
    merge_ranked,
)
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus import Collection
from repro.engine.executor import Executor
from repro.exceptions import ClusterError
from repro.index import InvertedIndex
from repro.index.cursor import CursorStats


@pytest.fixture(scope="module")
def collection() -> Collection:
    texts = [
        "usability testing of efficient software",
        "software measures how well users achieve task completion",
        "efficient task completion with usability in mind",
        "databases support full text search with inverted lists",
        "networks route packets between hosts efficiently",
        "software usability and software testing",
        "usability of software task completion software",
        "efficient inverted lists for efficient search",
    ]
    return Collection.from_texts(texts, name="scatter-test")


QUERIES = [
    "'software'",
    "'software' AND 'usability'",
    "'software' OR 'databases'",
    "'efficient' AND NOT 'networks'",
    "dist('task', 'completion', 2)",
]


# ------------------------------------------------------------------- scatter
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
@pytest.mark.parametrize("query_text", QUERIES)
def test_scatter_matches_single_index(collection, num_shards, query_text):
    single = Executor(InvertedIndex(collection))
    scatter = ScatterGatherExecutor(ShardedIndex(collection, num_shards))
    query = parse_query(query_text).node
    expected = single.execute(query)
    merged = scatter.execute(query)
    assert merged.node_ids == expected.node_ids
    assert merged.language_class == expected.language_class
    assert merged.engine == expected.engine
    assert merged.shard_count == num_shards
    scatter.close()


def test_sequential_fallback_equals_pooled_execution(collection):
    """``max_workers`` is accepted and ignored: both run in the caller."""
    query = parse_query("'software' AND 'usability'").node
    pooled = ScatterGatherExecutor(ShardedIndex(collection, 3), max_workers=8)
    sequential = ScatterGatherExecutor(ShardedIndex(collection, 3), max_workers=1)
    assert pooled.execute(query).node_ids == sequential.execute(query).node_ids
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard")
    ]  # in-process scatter runs in the caller: no shard thread pool exists
    pooled.close()
    sequential.close()


def test_execute_many_matches_repeated_execute(collection):
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 3), cache_size=None)
    queries = [parse_query(text).node for text in QUERIES]
    batch = scatter.execute_many(queries)
    singles = [scatter.execute(query) for query in queries]
    assert [r.node_ids for r in batch] == [r.node_ids for r in singles]
    scatter.close()


def test_cursor_stats_are_summed_over_shards(collection):
    query = parse_query("'software' AND 'usability'").node
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 3), cache_size=None)
    merged = scatter.execute(query)
    per_shard = [
        executor.execute(query).cursor_stats
        for executor in scatter._shard_executors
    ]
    assert merged.cursor_stats is not None
    assert merged.cursor_stats.next_entry_calls == sum(
        stats.next_entry_calls for stats in per_shard if stats is not None
    )
    scatter.close()


def test_top_k_truncates_ranking_but_not_match_count(collection):
    scatter = ScatterGatherExecutor(
        ShardedIndex(collection, 3), scoring="tfidf", cache_size=None
    )
    query = parse_query("'software'").node
    full = scatter.execute(query)
    top = scatter.execute(query, top_k=2)
    assert len(top.ranked()) == 2
    assert top.ranked() == full.ranked()[:2]
    assert top.node_ids == full.node_ids  # match count stays exact
    scatter.close()


# --------------------------------------------------------------------- merge
def test_merge_ranked_orders_by_score_then_id():
    merged = merge_ranked([[(1, 0.5), (3, 0.2)], [(2, 0.5), (4, 0.4)]])
    assert merged == [(1, 0.5), (2, 0.5), (4, 0.4), (3, 0.2)]
    assert merge_ranked([[(1, 0.5), (3, 0.2)], [(2, 0.5)]], top_k=2) == [
        (1, 0.5),
        (2, 0.5),
    ]


@pytest.mark.parametrize("bad_top_k", [0, -1, -7])
def test_merge_ranked_rejects_non_positive_top_k(bad_top_k):
    with pytest.raises(ValueError):
        merge_ranked([[(1, 0.5)]], top_k=bad_top_k)


def test_merge_cursor_stats_handles_missing_reports():
    assert merge_cursor_stats([None, None]) is None
    merged = merge_cursor_stats([CursorStats(next_entry_calls=2), None,
                                 CursorStats(next_entry_calls=3)])
    assert merged is not None and merged.next_entry_calls == 5


# --------------------------------------------------------------------- cache
def test_cache_lru_eviction_and_stats():
    cache = QueryCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes 'a'
    cache.put("c", 3)  # evicts 'b'
    assert cache.get("b") is None
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 2
    assert stats["misses"] == 1
    assert 0.0 < stats["hit_rate"] < 1.0


def test_cache_rejects_bad_capacity():
    with pytest.raises(ClusterError):
        QueryCache(capacity=0)


def test_cache_is_thread_safe_under_concurrent_mixed_traffic():
    """get / put / stats hammered from worker threads.

    The cache can be shared by several threads calling one engine, so
    every public entry point must hold the lock; this would
    corrupt the OrderedDict (or trip 'dictionary changed size during
    iteration') if any path skipped it.
    """
    import threading

    cache = QueryCache(capacity=16)
    errors: list[BaseException] = []
    barrier = threading.Barrier(8)

    def worker(worker_id: int) -> None:
        try:
            barrier.wait()
            for i in range(400):
                key = (worker_id * 7 + i) % 40
                cache.put(key, i)
                cache.get((key + 3) % 40)
                stats = cache.stats()
                assert stats["size"] <= stats["capacity"]
                len(cache)
                (key in cache)
        except BaseException as exc:  # pragma: no cover - failure capture
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    final = cache.stats()
    assert final["hits"] + final["misses"] == 8 * 400


def test_scatter_caches_results_and_marks_hits(collection):
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 2), cache_size=8)
    query = parse_query("'software' AND 'usability'").node
    first = scatter.execute(query)
    second = scatter.execute(query)
    assert not first.from_cache
    assert second.from_cache
    assert second.node_ids == first.node_ids
    assert scatter.cache_stats()["hits"] == 1
    scatter.close()


def test_cache_serves_smaller_k_from_wider_entry(collection):
    sharded = ShardedIndex(collection, 2)
    scatter = ScatterGatherExecutor(sharded, scoring="tfidf", cache_size=8)
    query = parse_query("'software'").node
    full = scatter.execute(query)
    # Any k is a prefix of the cached full ranking: a genuine hit.
    top = scatter.execute(query, top_k=2)
    assert top.from_cache is True
    assert top.ranked() == full.ranked()[:2]
    assert scatter.cache_stats()["hits"] == 1
    scatter.close()


def test_cache_widens_entry_on_larger_k_request(collection):
    sharded = ShardedIndex(collection, 2)
    scatter = ScatterGatherExecutor(sharded, scoring="tfidf", cache_size=8)
    query = parse_query("'software'").node
    scatter.execute(query, top_k=1)
    # A wider request cannot be served by the k=1 prefix: a miss that
    # recomputes and overwrites the entry with the wider ranking...
    wider = scatter.execute(query, top_k=2)
    assert wider.from_cache is False
    assert len(wider.ranked()) == 2
    # ...after which both the wider and the narrower k are hits.
    assert scatter.execute(query, top_k=2).from_cache is True
    assert scatter.execute(query, top_k=1).from_cache is True
    assert scatter.execute(query, top_k=1).ranked() == wider.ranked()[:1]
    # The full ranking is still wider than any pruned entry: a miss again.
    assert scatter.execute(query).from_cache is False
    assert scatter.execute(query).from_cache is True
    stats = scatter.cache_stats()
    assert stats["hits"] == 4 and stats["misses"] == 3
    scatter.close()


def test_incremental_update_rebinds_scoring_to_fresh_statistics():
    texts = [
        "software usability testing",
        "task completion software",
        "inverted lists for search",
    ]
    fresh = Collection.from_texts(texts, name="rebind-test")
    sharded = ShardedIndex(fresh, 2)
    scatter = ScatterGatherExecutor(sharded, scoring="tfidf", cache_size=8)
    query = parse_query("'usability'").node
    scatter.execute(query)
    sharded.add_text("zebra usability software testing")
    updated = scatter.execute(query)
    # Reference: a single-index executor built from scratch over the updated
    # corpus -- the post-update scores must use the fresh global df/N.
    from repro.scoring.base import get_model

    rebuilt = InvertedIndex(Collection.from_nodes(list(fresh), name="rebuilt"))
    reference = Executor(rebuilt, scoring=get_model("tfidf", rebuilt.statistics))
    expected = reference.execute(query)
    assert [nid for nid, _ in updated.ranked()] == [
        nid for nid, _ in expected.ranked()
    ]
    for (_, ours), (_, theirs) in zip(updated.ranked(), expected.ranked()):
        assert ours == pytest.approx(theirs, abs=1e-12)
    scatter.close()


def test_execute_many_duplicates_never_alias_after_in_batch_eviction(collection):
    # Capacity 1: the duplicate's entry is evicted by the second unique
    # query's put within the same batch; the fallback must still hand out
    # an independent copy.
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 2), cache_size=1)
    q1 = parse_query("'software'").node
    q2 = parse_query("'usability'").node
    first, _, dup = scatter.execute_many([q1, q2, q1])
    assert dup.node_ids == first.node_ids
    assert dup is not first
    dup.node_ids.clear()
    assert first.node_ids != []
    scatter.close()


def test_execute_many_counts_in_batch_duplicates_as_hits(collection):
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 2), cache_size=8)
    query = parse_query("'software'").node
    batch = scatter.execute_many([query, query, query])
    assert [r.from_cache for r in batch] == [False, True, True]
    stats = scatter.cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 2
    scatter.close()


def test_results_are_detached_from_the_cached_entry(collection):
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 2), cache_size=8)
    query = parse_query("'software'").node
    first = scatter.execute(query)
    expected_ids = list(first.node_ids)
    # A caller mauling its result must not corrupt the cache...
    first.node_ids.clear()
    first.ranked().clear()
    first.scores.clear()
    second = scatter.execute(query)
    assert second.from_cache
    assert second.node_ids == expected_ids
    assert [nid for nid, _ in second.ranked()] == expected_ids
    # ...and neither must mauling a returned cache hit.
    second.node_ids.clear()
    third = scatter.execute(query)
    assert third.node_ids == expected_ids
    scatter.close()


def test_cache_stats_report_zero_capacity_when_disabled(collection):
    scatter = ScatterGatherExecutor(ShardedIndex(collection, 2), cache_size=None)
    assert scatter.cache_stats()["capacity"] == 0
    scatter.close()


def test_custom_scoring_instance_with_extra_ctor_args_fails_loud(collection):
    from repro.exceptions import ScoringError
    from repro.index import InvertedIndex as _II
    from repro.scoring.tfidf import TfIdfScoring

    class Weighted(TfIdfScoring):
        def __init__(self, statistics, weight):
            super().__init__(statistics)
            self.weight = weight

    stats = _II(collection).statistics
    with pytest.raises(ScoringError, match="register it"):
        ScatterGatherExecutor(ShardedIndex(collection, 2), scoring=Weighted(stats, 2.0))


def test_static_sharded_append_makes_the_next_lookup_a_miss():
    fresh = Collection.from_texts(
        ["software usability", "task completion", "inverted lists"],
        name="generation-test",
    )
    sharded = ShardedIndex(fresh, 2)
    scatter = ScatterGatherExecutor(sharded, cache_size=8)
    query = parse_query("'zebra' AND 'crossing'").node
    assert scatter.execute(query).node_ids == []
    assert scatter.execute(query).from_cache
    sharded.add_text("a zebra crossing near the software lab")
    refreshed = scatter.execute(query)
    assert not refreshed.from_cache  # the stale empty answer is unreachable
    assert refreshed.node_ids == [3]
    assert scatter.execute(query).from_cache  # the new entry serves again
    stats = scatter.cache_stats()
    assert (stats["hits"], stats["misses"]) == (2, 2)
    scatter.close()


# ------------------------------------------------------------------- facade
def test_facade_reports_shard_and_cache_metadata(collection):
    engine = FullTextEngine.from_collection(collection, shards=3, cache_size=128)
    results = engine.search("'software' AND 'usability'")
    assert results.metadata == {"shards": 3, "cache": "miss"}
    again = engine.search("'software' AND 'usability'")
    assert again.metadata == {"shards": 3, "cache": "hit"}
    assert engine.num_shards == 3
    assert len(engine.shard_stats()) == 3
    engine.close()


def test_facade_caches_a_single_index(collection):
    engine = FullTextEngine.from_collection(collection, cache_size=16)
    assert type(engine.index) is InvertedIndex and engine.num_shards == 1
    assert engine.search("'software'").metadata == {"shards": 1, "cache": "miss"}
    assert engine.search("'software'").metadata == {"shards": 1, "cache": "hit"}
    assert engine.cache_stats()["hits"] == 1
    assert engine.cache_stats()["capacity"] == 16
    engine.close()


@pytest.mark.parametrize("cache_size", [None, 0])
def test_facade_cache_size_none_or_zero_runs_uncached(collection, cache_size):
    engine = FullTextEngine.from_collection(collection, cache_size=cache_size)
    assert engine.search("'software'").metadata["cache"] == "off"
    assert engine.cache_stats()["capacity"] == 0
    engine.close()


def test_facade_metadata_reports_cache_off_when_disabled(collection):
    engine = FullTextEngine.from_collection(collection, shards=2, cache_size=None)
    results = engine.search("'software'")
    assert results.metadata == {"shards": 2, "cache": "off"}
    engine.close()


def test_facade_scoring_property_tracks_post_update_statistics():
    fresh = Collection.from_texts(
        ["software usability", "task completion"], name="scoring-prop"
    )
    engine = FullTextEngine.from_collection(fresh, scoring="tfidf", shards=2)
    before = engine.scoring.statistics.node_count
    engine.index.add_text("a new software document")
    engine.search("'software'")  # triggers the stale-model refresh
    assert engine.scoring.statistics.node_count == before + 1
    engine.close()


def test_facade_single_index_is_the_one_shard_case(collection):
    engine = FullTextEngine.from_collection(collection)
    results = engine.search("'software'")
    assert results.metadata == {"shards": 1, "cache": "off"}
    assert engine.num_shards == 1
    assert len(engine.shard_stats()) == 1
    assert engine.cache_stats()["capacity"] == 0
    engine.close()


def test_merged_result_type_round_trip(collection):
    engine = FullTextEngine.from_collection(collection, shards=2)
    outcome = engine.evaluate("'software'")
    assert isinstance(outcome, MergedEvaluationResult)
    assert outcome.shard_count == 2
    engine.close()
