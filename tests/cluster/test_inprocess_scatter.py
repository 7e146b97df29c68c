"""In-process scatter: shards run in the caller, per-query facts decided once.

``workers="thread"`` evaluates the shards one after another in the calling
thread -- there is no shard thread pool any more, and ``max_workers`` only
sizes the ``workers="process"`` pool.  These tests pin

* the equivalence that licensed the deletion: every shard count x
  ``max_workers`` x entry point returns the unsharded engine's ids, scores,
  order and match count, and the cursor statistics of ``workers="process"``
  (which are the sum over the shards evaluated stand-alone);
* that no ``repro-shard*`` thread exists during or after a query, or after
  ``close()``;
* that a multi-shard miss classifies its query exactly once inside the
  cluster tier (a hit: never) and computes its query norm once, and a forced
  engine is validated before any shard runs;
* the two defects the pooled path had: a raising shard left its siblings
  running behind the caller's back, and ``execute_many`` reported
  ``max(shard)`` as the elapsed time of shards that do not overlap.
"""

from __future__ import annotations

import heapq
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.scatter as scatter_module
import repro.engine.executor as executor_module
from repro.bench.workload import workload_queries
from repro.cluster import (
    LiveShardedIndex,
    ScatterGatherExecutor,
    ShardedIndex,
    merge_cursor_stats,
    merge_ranked,
)
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus import Collection
from repro.corpus.synthetic import SyntheticSpec, generate_collection
from repro.engine.executor import Executor
from repro.exceptions import UnsupportedQueryError
from repro.index import InvertedIndex
from repro.index.statistics import IndexStatistics
from repro.languages import ast

SHARD_COUNTS = (1, 2, 4, 7)
MAX_WORKERS = (None, 1, 2, 8)
TOP_KS = (None, 5)


@pytest.fixture(scope="module")
def corpus() -> Collection:
    spec = SyntheticSpec(
        num_nodes=60,
        tokens_per_node=50,
        vocabulary_size=180,
        query_tokens=("alpha", "beta", "gamma"),
        query_token_document_frequency=0.5,
        query_token_positions_per_entry=3,
        sentence_length=8,
        paragraph_length=20,
        seed=13,
    )
    return generate_collection(spec, name="in-process-scatter")


@pytest.fixture(scope="module")
def queries() -> list[ast.QueryNode]:
    series = workload_queries(["alpha", "beta", "gamma"], 3, 2)
    extra = ["'alpha' OR 'beta'", "'alpha' AND NOT 'gamma'"]
    return list(series.values()) + [parse_query(text).node for text in extra]


def shard_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-shard")
    ]


def answer(results) -> tuple:
    """What the user sees: ranked (id, score) pairs, match count, class, engine."""
    return (
        [(result.node_id, result.score) for result in results.results],
        results.total_matches,
        results.language_class,
        results.engine,
    )


def counters(results):
    stats = results.cursor_stats
    return stats.as_extended_dict() if stats is not None else None


@pytest.fixture(scope="module")
def unsharded(corpus, queries) -> dict:
    engine = FullTextEngine.from_collection(corpus, scoring="tfidf")
    return {
        (position, top_k): answer(engine.search(query, top_k=top_k))
        for position, query in enumerate(queries)
        for top_k in TOP_KS
    }


@pytest.fixture(scope="module")
def process_mode(corpus, queries) -> dict:
    """(shards, query, k) -> (answer, cursor counters) under ``workers="process"``."""
    rows = {}
    for shards in SHARD_COUNTS:
        with_processes = FullTextEngine(
            ShardedIndex(corpus, shards), scoring="tfidf", cache_size=None,
            workers="process", max_workers=2,
        )
        try:
            for position, query in enumerate(queries):
                for top_k in TOP_KS:
                    found = with_processes.search(query, top_k=top_k)
                    rows[shards, position, top_k] = (answer(found), counters(found))
        finally:
            with_processes.close()
    return rows


def standalone_counters(engine: FullTextEngine, query, top_k):
    """Cursor counters summed over the shard executors run one by one."""
    per_shard = [
        executor.execute(query, top_k=top_k).cursor_stats
        for executor in engine._cluster._shard_executors
    ]
    return merge_cursor_stats(per_shard).as_extended_dict()


# ------------------------------------------------- the equivalence cross-product
@pytest.mark.parametrize("entry", ["search", "search_many", "explain", "live"])
@pytest.mark.parametrize("max_workers", MAX_WORKERS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_every_shape_equals_unsharded_and_process_mode(
    corpus, queries, unsharded, process_mode, shards, max_workers, entry
):
    if entry == "live":
        index = LiveShardedIndex(corpus, shards)
    else:
        index = ShardedIndex(corpus, shards)
    engine = FullTextEngine(
        index, scoring="tfidf", cache_size=None, max_workers=max_workers
    )
    try:
        for top_k in TOP_KS:
            if entry == "search_many":
                found = engine.search_many(queries, top_k=top_k)
            else:
                found = [
                    engine.search(query, top_k=top_k, explain=entry == "explain")
                    for query in queries
                ]
            assert not shard_threads()
            for position, results in enumerate(found):
                assert answer(results) == unsharded[position, top_k]
                assert counters(results) == standalone_counters(
                    engine, queries[position], top_k
                )
                if entry == "live":
                    continue  # process mode needs static shards
                expected_answer, expected_counters = process_mode[
                    shards, position, top_k
                ]
                assert answer(results) == expected_answer
                assert counters(results) == expected_counters
                if entry == "explain":
                    explained = results.metadata["explain"]
                    assert explained["workers"] == "thread"
                    assert len(explained["shards"]) == shards
                    assert explained["cursor_totals"] == expected_counters
    finally:
        engine.close()
    assert not shard_threads()


def test_shards_are_evaluated_in_the_calling_thread(corpus, queries):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None, max_workers=2
    )
    seen = []
    for executor in cluster._shard_executors:
        original = executor.execute

        def spy(*args, _original=original, **kwargs):
            seen.append((threading.current_thread(), shard_threads()))
            return _original(*args, **kwargs)

        executor.execute = spy
    cluster.execute(queries[0], top_k=5)
    cluster.close()
    assert seen == [(threading.current_thread(), [])] * 4
    assert not shard_threads()


def test_one_scoring_model_serves_every_shard(corpus, queries):
    sharded = ShardedIndex(Collection(dict(corpus.nodes), "growing"), 4)
    cluster = ScatterGatherExecutor(sharded, scoring="tfidf", cache_size=None)
    models = {id(executor.scoring) for executor in cluster._shard_executors}
    assert models == {id(cluster.scoring)}
    before = cluster.scoring
    sharded.add_text("alpha beta gamma alpha")
    cluster.execute(queries[0], top_k=5)
    models = {id(executor.scoring) for executor in cluster._shard_executors}
    assert models == {id(cluster.scoring)}
    assert cluster.scoring is not before  # re-bound to the fresh statistics
    assert cluster.scoring.statistics is sharded.statistics
    cluster.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_a_miss_computes_the_query_norm_once(corpus, shards, monkeypatch):
    """Every shard prepares the shared model with the same sorted tokens;
    only the first prepare of a query does the work."""
    norms = []
    original = IndexStatistics.query_l2_norm

    def counting(self, token_weights):
        norms.append(tuple(token_weights))
        return original(self, token_weights)

    monkeypatch.setattr(IndexStatistics, "query_l2_norm", counting)
    texts = ["'alpha'", "'alpha' AND 'beta'", "'gamma' OR 'beta'", "'alpha'"]
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, shards), scoring="tfidf", cache_size=None
    )
    try:
        for text in texts:
            del norms[:]
            cluster.execute(parse_query(text).node, top_k=5)
            assert len(norms) == 1, (text, norms)
    finally:
        cluster.close()


# ------------------------------------------------- per-query facts, decided once
@pytest.fixture
def classifications(monkeypatch) -> list:
    """Every ``classify_query`` call made by the cluster tier or a shard executor."""
    calls = []
    original = executor_module.classify_query

    def counting(node, registry=None):
        calls.append(node)
        return original(node, registry)

    monkeypatch.setattr(scatter_module, "classify_query", counting)
    monkeypatch.setattr(executor_module, "classify_query", counting)
    return calls


def test_a_multi_shard_miss_classifies_once_and_a_hit_never(
    corpus, queries, classifications
):
    cluster = ScatterGatherExecutor(ShardedIndex(corpus, 4), scoring="tfidf")
    try:
        for expected, query in enumerate(queries, start=1):
            assert not cluster.execute(query, top_k=5).from_cache
            assert len(classifications) == expected
        del classifications[:]
        for query in queries:
            assert cluster.execute(query, top_k=5).from_cache
        assert classifications == []
        # A wider request than the cached entry covers is a miss again.
        cluster.execute(queries[0], top_k=9)
        assert len(classifications) == 1
    finally:
        cluster.close()


def test_a_batch_classifies_each_scheduled_query_once(corpus, queries, classifications):
    cluster = ScatterGatherExecutor(ShardedIndex(corpus, 4), scoring="tfidf")
    try:
        cluster.execute(queries[0], top_k=5)
        del classifications[:]
        # One cached, two new, one duplicate of a new one.
        cluster.execute_many(
            [queries[0], queries[1], queries[2], queries[1]], top_k=5
        )
        assert len(classifications) == 2
    finally:
        cluster.close()


@pytest.mark.parametrize("optimizer", ["static", "on", "off"])
@pytest.mark.parametrize("shards", [1, 4])
def test_forced_engine_misuse_raises(corpus, queries, shards, optimizer):
    positive = queries[1]  # a PPRED query: the bool engine cannot run it
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, shards), scoring="tfidf", optimizer=optimizer
    )
    reference = Executor(InvertedIndex(corpus))
    try:
        with pytest.raises(UnsupportedQueryError, match="cannot evaluate"):
            cluster.execute(positive, engine="bool")
        with pytest.raises(UnsupportedQueryError, match="unknown engine"):
            cluster.execute(positive, engine="quantum")
        with pytest.raises(UnsupportedQueryError):
            cluster.execute_many([queries[0], positive], engine="bool")
        # A valid forced engine above the query's class still works.
        forced = cluster.execute(positive, engine="npred")
        assert forced.engine == "npred"
        assert forced.node_ids == reference.execute(positive, engine="npred").node_ids
    finally:
        cluster.close()


def test_forced_engine_is_validated_before_any_shard_runs(corpus, queries):
    cluster = ScatterGatherExecutor(ShardedIndex(corpus, 4), scoring="tfidf")
    touched = []
    for executor in cluster._shard_executors:
        executor.execute = lambda *args, **kwargs: touched.append(args)
    with pytest.raises(UnsupportedQueryError):
        cluster.execute(queries[1], engine="bool")
    cluster.close()
    assert touched == []


# ------------------------------------------------- the pooled path's two defects
class ShardFailure(RuntimeError):
    pass


@pytest.mark.parametrize("entry", ["execute", "execute_many"])
def test_a_raising_shard_stops_the_scatter_and_leaves_nothing_running(
    corpus, queries, entry
):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None, max_workers=4
    )
    reference = Executor(
        InvertedIndex(corpus), scoring=cluster.scoring, optimizer="off"
    )
    evaluated = []
    originals = {}
    for shard_id, executor in enumerate(cluster._shard_executors):
        originals[shard_id] = getattr(executor, entry)

        def spy(*args, _shard_id=shard_id, **kwargs):
            evaluated.append(_shard_id)
            if _shard_id == 1:
                raise ShardFailure("shard 1 is broken")
            return originals[_shard_id](*args, **kwargs)

        setattr(executor, entry, spy)

    def run(query):
        if entry == "execute":
            return cluster.execute(query, top_k=5)
        return cluster.execute_many([query], top_k=5)[0]

    try:
        with pytest.raises(ShardFailure):
            run(queries[0])
        assert evaluated == [0, 1]  # shards 2 and 3 were never started
        assert not shard_threads()
        # The shard recovers; the next query finds every executor idle.
        for shard_id, executor in enumerate(cluster._shard_executors):
            setattr(executor, entry, originals[shard_id])
        merged = run(queries[2])
        expected = reference.execute(queries[2], top_k=5)
        assert merged.node_ids == expected.node_ids
        assert merged.ranked() == expected.ranked()
    finally:
        cluster.close()


def test_batch_elapsed_is_the_sum_of_back_to_back_shards(corpus, queries):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None
    )
    shipped = []
    for executor in cluster._shard_executors:
        original = executor.execute_many

        def spy(*args, _original=original, **kwargs):
            shipped.append(_original(*args, **kwargs))
            return shipped[-1]

        executor.execute_many = spy
    try:
        merged = cluster.execute_many(queries, top_k=5)
    finally:
        cluster.close()
    assert len(shipped) == 4
    for position, result in enumerate(merged):
        shard_times = [batch[position].elapsed_seconds for batch in shipped]
        assert result.elapsed_seconds == sum(shard_times)
        assert result.elapsed_seconds > max(shard_times)


def test_batch_elapsed_stays_the_slowest_shard_for_worker_processes(corpus, queries):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 2), scoring="tfidf", cache_size=None, workers="process"
    )
    shipped = []
    original = cluster._process_scatter

    def spy(*args, **kwargs):
        batches = original(*args, **kwargs)
        shipped.extend(batches)
        return batches

    cluster._process_scatter = spy
    try:
        merged = cluster.execute_many(queries, top_k=5)
    finally:
        cluster.close()
    for position, result in enumerate(merged):
        assert result.elapsed_seconds == max(
            batch[position].elapsed_seconds for batch in shipped
        )


# ------------------------------------------------- the merge, against the heap merge
def heap_merge_ranked(streams, top_k):
    """The k-way heap merge ``merge_ranked`` used to be: the reference."""
    merged = heapq.merge(*streams, key=lambda pair: (-pair[1], pair[0]))
    ranked = list(merged)
    return ranked if top_k is None else ranked[:top_k]


@st.composite
def ranked_streams(draw):
    """Disjoint per-shard rankings, each sorted by (-score, id), with ties."""
    shards = draw(st.integers(min_value=1, max_value=5))
    ids = draw(st.lists(st.integers(0, 200), unique=True, max_size=40))
    scores = st.sampled_from([0.0, 0.25, 0.5, 0.5000000000000001, 1.0, 2.5])
    streams = [[] for _ in range(shards)]
    for node_id in ids:
        streams[node_id % shards].append((node_id, draw(scores)))
    return [
        sorted(stream, key=lambda pair: (-pair[1], pair[0])) for stream in streams
    ]


@settings(max_examples=150, deadline=None)
@given(ranked_streams(), st.one_of(st.none(), st.integers(1, 12)))
def test_merge_ranked_equals_the_heap_merge(streams, top_k):
    assert merge_ranked(streams, top_k) == heap_merge_ranked(streams, top_k)
