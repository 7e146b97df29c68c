"""Pruned top-k == rank-then-truncate, across the whole execution matrix.

The exactness contract of the top-k pushdown (see :mod:`repro.engine.topk`):
for every engine (BOOL / PPRED / NPRED), both cursor access modes, both
scoring backends, shard counts {1, 4} and both index flavours (static and
live-with-mutations), a ``top_k=k`` search must return *exactly* the first
``k`` entries of the unpruned ranking -- same node ids, bit-identical
scores, same order -- while the reported match count stays complete.

Deterministic sweeps over the paper's workload queries pin the matrix; a
hypothesis property hammers random corpora, random BOOL queries and random
``k`` on top.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.workload import workload_queries
from repro.core.engine import FullTextEngine
from repro.corpus import Collection, ContextNode
from repro.corpus.synthetic import SyntheticSpec, generate_collection
from repro.languages import ast

#: (series, forced engine) pairs covering the complexity hierarchy.
ENGINE_SERIES = [
    ("BOOL", "bool"),
    ("POSITIVE", "ppred"),
    ("POSITIVE", "npred"),
    ("NEGATIVE", "npred"),
]

K_VALUES = (1, 3, 10)


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
        seed=29,
    )
    return generate_collection(spec, name="topk-equivalence-corpus")


@pytest.fixture(scope="module")
def queries() -> dict[str, ast.QueryNode]:
    return workload_queries(["alpha", "beta", "gamma"], 3, 2)


def _build_engine(
    corpus: Collection,
    scoring: str,
    access_mode: str,
    shards: int,
    live: bool,
) -> FullTextEngine:
    engine = FullTextEngine.from_collection(
        corpus,
        scoring=scoring,
        access_mode=access_mode,
        shards=shards,
        live=live,
        # The cache would serve the top-k request straight from the warm
        # full ranking (prefix serving); disable it so every search below
        # genuinely exercises the per-shard pushdown.
        cache_size=0,
    )
    if live:
        # Make the live index earn its name: extra segments, a tombstone
        # and an in-place rewrite, so the multi-segment cursors and the
        # survivor-exact statistics are what the pushdown actually sees.
        engine.add_document("alpha beta gamma fresh segment document")
        engine.add_document("beta beta alpha gamma gamma alpha")
        engine.flush()
        engine.delete_document(7)
        engine.update_document(11, "gamma alpha beta rewritten alpha")
        engine.add_document("alpha gamma beta after the flush")
    return engine


def assert_pushdown_exact(engine: FullTextEngine, query, forced_engine: str):
    full = engine.search(query, engine=forced_engine)
    full_pairs = [(r.node_id, r.score) for r in full.results]
    for k in K_VALUES:
        pruned = engine.search(query, engine=forced_engine, top_k=k)
        pruned_pairs = [(r.node_id, r.score) for r in pruned.results]
        assert pruned_pairs == full_pairs[:k]
        assert pruned.total_matches == full.total_matches


@pytest.mark.parametrize("live", [False, True], ids=["static", "live"])
@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("scoring", ["tfidf", "probabilistic"])
@pytest.mark.parametrize("access_mode", ["paper", "fast"])
def test_pushdown_matrix(corpus, queries, access_mode, scoring, shards, live):
    engine = _build_engine(corpus, scoring, access_mode, shards, live)
    try:
        for series, forced_engine in ENGINE_SERIES:
            assert_pushdown_exact(engine, queries[series], forced_engine)
    finally:
        engine.close()


def test_pushdown_exact_under_the_automatic_engine_choice(corpus, queries):
    """The matrix forces each engine; here every query runs on the engine
    its class picks, and each top-3 cut is the unpruned ranking's prefix."""
    for shards in (1, 4):
        engine = FullTextEngine.from_collection(
            corpus, scoring="tfidf", shards=shards, cache_size=0
        )
        try:
            for series, _ in ENGINE_SERIES:
                assert_pushdown_exact(engine, queries[series], "auto")
        finally:
            engine.close()


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


@settings(max_examples=50, deadline=None)
@given(
    collection=collections(),
    query=bool_queries(),
    k=st.integers(min_value=1, max_value=12),
    shards=st.sampled_from([1, 4]),
    scoring=st.sampled_from(["tfidf", "probabilistic"]),
    live=st.booleans(),
)
def test_random_queries_pruned_prefix_is_exact(
    collection, query, k, shards, scoring, live
):
    engine = FullTextEngine.from_collection(
        collection, scoring=scoring, shards=shards, live=live, cache_size=0
    )
    try:
        full = engine.search(query)
        pruned = engine.search(query, top_k=k)
        assert [(r.node_id, r.score) for r in pruned.results] == [
            (r.node_id, r.score) for r in full.results
        ][:k]
        assert pruned.total_matches == full.total_matches
    finally:
        engine.close()
