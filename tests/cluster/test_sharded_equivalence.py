"""Sharded-vs-single equivalence: identical node ids and scores.

The acceptance contract of the cluster subsystem: for every query class of
the paper's hierarchy (BOOL including negation, PPRED, NPRED), both cursor
access modes and every scoring backend, scatter-gather execution over any
number of shards returns exactly the node ids of the single-index path and
scores equal to within 1e-9.

Two layers of tests:

* deterministic sweeps over the workload-generator queries (the exact shapes
  the paper's experiments use) at shard counts {1, 2, 4, 7};
* a hypothesis property over randomly generated small collections and random
  BOOL/DIST queries, which also varies the partitioner.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workload import workload_queries
from repro.core.engine import FullTextEngine
from repro.corpus import Collection, ContextNode
from repro.corpus.synthetic import SyntheticSpec, generate_collection
from repro.languages import ast

SHARD_COUNTS = (1, 2, 4, 7)

#: (series, forced engine) pairs covering the complexity hierarchy.
ENGINE_SERIES = [
    ("BOOL", "bool"),
    ("POSITIVE", "ppred"),
    ("POSITIVE", "npred"),
    ("NEGATIVE", "npred"),
]


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
    return generate_collection(spec, name="equivalence-corpus")


@pytest.fixture(scope="module")
def queries() -> dict[str, ast.QueryNode]:
    return workload_queries(["alpha", "beta", "gamma"], 3, 2)


def assert_equivalent(single: FullTextEngine, sharded: FullTextEngine, query, engine):
    expected = single.search(query, engine=engine)
    got = sharded.search(query, engine=engine)
    assert got.node_ids == expected.node_ids
    for theirs, ours in zip(expected.results, got.results):
        assert ours.node_id == theirs.node_id
        assert ours.score == pytest.approx(theirs.score, abs=1e-9)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("series,engine", ENGINE_SERIES)
@pytest.mark.parametrize("access_mode", ["paper", "fast"])
def test_workload_equivalence_unscored(corpus, queries, shards, series, engine, access_mode):
    single = FullTextEngine.from_collection(corpus, access_mode=access_mode)
    sharded = FullTextEngine.from_collection(
        corpus, access_mode=access_mode, shards=shards
    )
    assert_equivalent(single, sharded, queries[series], engine)
    sharded.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("scoring", ["tfidf", "probabilistic"])
def test_workload_equivalence_scored(corpus, queries, shards, scoring):
    single = FullTextEngine.from_collection(corpus, scoring=scoring)
    sharded = FullTextEngine.from_collection(corpus, scoring=scoring, shards=shards)
    for series, engine in ENGINE_SERIES:
        assert_equivalent(single, sharded, queries[series], engine)
    sharded.close()


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_repeated_workload_equivalence(corpus, queries, shards):
    """A workload with every query twice: the repeats are answered from the
    result cache, and the cached answers equal the single index's too."""
    single = FullTextEngine.from_collection(corpus, scoring="tfidf")
    sharded = FullTextEngine.from_collection(
        corpus, scoring="tfidf", shards=shards, cache_size=32
    )
    workload = list(queries.values()) + list(queries.values())
    try:
        for position, query in enumerate(workload):
            expected = single.search(query, top_k=5)
            got = sharded.search(query, top_k=5)
            repeat = position >= len(queries)
            assert (got.metadata["cache"] == "hit") is repeat
            assert got.node_ids == expected.node_ids
            assert got.total_matches == expected.total_matches
            for theirs, ours in zip(expected.results, got.results):
                assert ours.score == pytest.approx(theirs.score, abs=1e-9)
    finally:
        sharded.close()


# ------------------------------------------------------- hypothesis property
TOKENS = ["a", "b", "c", "d"]

documents = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=10)


@st.composite
def collections(draw) -> Collection:
    docs = draw(st.lists(documents, min_size=1, max_size=9))
    nodes = [
        ContextNode.from_tokens(idx, tokens, sentence_length=3, paragraph_length=5)
        for idx, tokens in enumerate(docs)
    ]
    return Collection.from_nodes(nodes)


@st.composite
def bool_queries(draw, depth: int = 2) -> ast.QueryNode:
    if depth == 0:
        return ast.TokenQuery(draw(st.sampled_from(TOKENS)))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return ast.TokenQuery(draw(st.sampled_from(TOKENS)))
    left = draw(bool_queries(depth=depth - 1))
    right = draw(bool_queries(depth=depth - 1))
    if choice == 1:
        return ast.AndQuery(left, right)
    if choice == 2:
        return ast.OrQuery(left, right)
    return ast.AndQuery(left, ast.NotQuery(right))


@settings(max_examples=40, deadline=None)
@given(
    collection=collections(),
    query=bool_queries(),
    shards=st.sampled_from(SHARD_COUNTS),
    partitioner=st.sampled_from(["hash", "round-robin"]),
)
def test_random_queries_equivalent_across_shard_counts(
    collection, query, shards, partitioner
):
    single = FullTextEngine.from_collection(collection, scoring="tfidf")
    sharded = FullTextEngine.from_collection(
        collection, scoring="tfidf", shards=shards, partitioner=partitioner
    )
    expected = single.search(query)
    got = sharded.search(query)
    assert got.node_ids == expected.node_ids
    for theirs, ours in zip(expected.results, got.results):
        assert ours.score == pytest.approx(theirs.score, abs=1e-9)
    sharded.close()
