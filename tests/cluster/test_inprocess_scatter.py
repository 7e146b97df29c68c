"""In-process scatter: shards run in the caller, per-query facts decided once.

The scatter-gather executor evaluates the shards one after another in the
calling thread -- there is no shard thread or process pool, and
``max_workers`` is accepted and ignored.  These tests pin

* that four shards return the unsharded engine's ids, scores, order and
  match count, and cursor statistics equal to the sum over the shards
  evaluated stand-alone, whatever ``max_workers`` says, while the retired
  ``workers`` keyword is refused (every shard count and index shape against
  the calculus is ``tests/equivalence``);
* that no ``repro-shard*`` thread exists during or after a query, or after
  ``close()``;
* that a multi-shard miss classifies its query exactly once inside the
  cluster tier (a hit: never), that a string search through the facade
  classifies exactly as often, that a miss computes its query norm once,
  and that a forced engine is validated before any shard runs;
* the two defects the thread-pooled path had: a raising shard left its
  siblings running behind the caller's back, and the merged elapsed time
  was ``max(shard)`` for shards that do not overlap.
"""

from __future__ import annotations

import heapq
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.cluster.scatter as scatter_module
import repro.core.query as query_module
import repro.engine.executor as executor_module
import repro.languages.classify as classify_module
from repro.bench.workload import workload_queries
from repro.cluster import (
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

TOP_KS = (None, 5)
OPTIMIZERS = ("off", "on")
#: The fixture queries by name: the paper's three series, then two BOOL extras.
EXTRA_QUERIES = {"OR": "'alpha' OR 'beta'", "AND_NOT": "'alpha' AND NOT 'gamma'"}
QUERY_NAMES = ("BOOL", "POSITIVE", "NEGATIVE", *EXTRA_QUERIES)


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
    extra = {name: parse_query(text).node for name, text in EXTRA_QUERIES.items()}
    named = {**series, **extra}
    assert tuple(named) == QUERY_NAMES
    return list(named.values())


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


def standalone_counters(engine: FullTextEngine, query, top_k):
    """Cursor counters summed over the shard executors run one by one."""
    per_shard = [
        executor.execute(query, top_k=top_k).cursor_stats
        for executor in engine._coordinator._shard_executors
    ]
    return merge_cursor_stats(per_shard).as_extended_dict()


@pytest.mark.parametrize("max_workers", (None, 1, 2, 8))
def test_max_workers_is_accepted_and_ignored(
    corpus, queries, unsharded, max_workers
):
    """Existing callers still pass ``max_workers``; it changes no answer."""
    engine = FullTextEngine(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None,
        max_workers=max_workers,
    )
    try:
        for position, query in enumerate(queries):
            for top_k in TOP_KS:
                results = engine.search(query, top_k=top_k)
                assert answer(results) == unsharded[position, top_k]
                assert counters(results) == standalone_counters(
                    engine, query, top_k
                )
        assert not shard_threads()
    finally:
        engine.close()


@pytest.mark.parametrize(
    "constructor", [FullTextEngine, ScatterGatherExecutor], ids=["engine", "cluster"]
)
def test_the_retired_workers_keyword_is_rejected(corpus, constructor):
    with pytest.raises(TypeError, match="workers"):
        constructor(ShardedIndex(corpus, 2), workers="process")


def test_shards_are_evaluated_in_the_calling_thread(corpus, queries):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None
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
    """Every ``classify_query`` call made by the facade, the cluster tier or
    a shard executor (the facade reads it from ``repro.core.query`` and, for
    an AST, from ``repro.languages.classify``)."""
    calls = []
    original = classify_module.classify_query

    def counting(node, registry=None):
        calls.append(node)
        return original(node, registry)

    for module in (classify_module, query_module, scatter_module, executor_module):
        monkeypatch.setattr(module, "classify_query", counting)
    return calls


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_a_multi_shard_miss_classifies_once_and_a_hit_never(
    corpus, queries, classifications, optimizer
):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", optimizer=optimizer
    )
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


@pytest.mark.parametrize("shards", [1, 4])
def test_a_facade_search_classifies_once_on_a_miss_and_never_on_a_hit(
    corpus, queries, classifications, shards
):
    """Parsing does not classify: the only classification of a search is
    the coordinator's, on a miss -- for query text and for an AST alike."""
    engine = FullTextEngine(
        ShardedIndex(corpus, shards), scoring="tfidf", cache_size=32
    )
    try:
        for query in queries:
            del classifications[:]
            results = engine.search(query.to_text(), top_k=5)
            assert results.metadata["cache"] == "miss"
            assert len(classifications) == 1
            del classifications[:]
            assert engine.search(query.to_text(), top_k=5).metadata["cache"] == "hit"
            assert engine.search(query, top_k=5).metadata["cache"] == "hit"
            assert classifications == []
    finally:
        engine.close()


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
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


@pytest.mark.parametrize("explain", [False, True], ids=["execute", "explain"])
def test_a_raising_shard_stops_the_scatter_and_leaves_nothing_running(
    corpus, queries, explain
):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None
    )
    reference = Executor(
        InvertedIndex(corpus), scoring=cluster.scoring, optimizer="off"
    )
    evaluated = []
    originals = {}
    for shard_id, executor in enumerate(cluster._shard_executors):
        originals[shard_id] = executor.execute

        def spy(*args, _shard_id=shard_id, **kwargs):
            evaluated.append(_shard_id)
            if _shard_id == 1:
                raise ShardFailure("shard 1 is broken")
            return originals[_shard_id](*args, **kwargs)

        executor.execute = spy

    try:
        with pytest.raises(ShardFailure):
            cluster.execute(queries[0], top_k=5, explain=explain)
        assert evaluated == [0, 1]  # shards 2 and 3 were never started
        assert not shard_threads()
        # The shard recovers; the next query finds every executor idle.
        for shard_id, executor in enumerate(cluster._shard_executors):
            executor.execute = originals[shard_id]
        merged = cluster.execute(queries[2], top_k=5, explain=explain)
        expected = reference.execute(queries[2], top_k=5)
        assert merged.node_ids == expected.node_ids
        assert merged.ranked() == expected.ranked()
    finally:
        cluster.close()


@pytest.mark.parametrize("explain", [False, True], ids=["execute", "explain"])
def test_elapsed_covers_every_back_to_back_shard(corpus, queries, explain):
    cluster = ScatterGatherExecutor(
        ShardedIndex(corpus, 4), scoring="tfidf", cache_size=None
    )
    shipped = []
    for executor in cluster._shard_executors:
        original = executor.execute

        def spy(*args, _original=original, **kwargs):
            shipped.append(_original(*args, **kwargs))
            return shipped[-1]

        executor.execute = spy
    try:
        for query in queries:
            del shipped[:]
            merged = cluster.execute(query, top_k=5, explain=explain)
            assert len(shipped) == 4
            shard_times = [result.elapsed_seconds for result in shipped]
            assert merged.elapsed_seconds >= sum(shard_times)
            assert merged.elapsed_seconds > max(shard_times)
    finally:
        cluster.close()


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
