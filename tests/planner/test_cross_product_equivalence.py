"""The optimizer invariant, pinned across the whole configuration space.

Turning the optimizer on or off must never change a returned byte:
node ids, scores and order are bit-identical under every combination of
query class, access mode, scoring model, shard count and index tier.  A
hypothesis search samples the static-index cross-product (engines are
cached per configuration, so examples stay cheap); the expensive corner --
the live index tier -- is pinned by deterministic parametrized tests below.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench.workload import workload_queries
from repro.core.engine import FullTextEngine
from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS

QUERIES = workload_queries(
    list(DEFAULT_QUERY_TOKENS), num_tokens=3, num_predicates=2
)

OPTIMIZERS = ["off", "on"]
SERIES = sorted(QUERIES)
ACCESS_MODES = ["paper", "fast"]
SCORINGS = ["tfidf", "probabilistic"]
SHARD_COUNTS = [1, 4]
TOP_KS = [None, 5]


def ranking(results):
    return [(r.node_id, r.score) for r in results]


@pytest.fixture(scope="module")
def engines(small_synthetic):
    """Engine per sampled configuration, built lazily and closed at teardown."""
    built: dict[tuple, FullTextEngine] = {}

    def get(optimizer: str, access_mode: str, scoring: str, shards: int):
        key = (optimizer, access_mode, scoring, shards)
        if key not in built:
            built[key] = FullTextEngine.from_collection(
                small_synthetic,
                scoring=scoring,
                access_mode=access_mode,
                shards=shards,
                cache_size=None,  # every search exercises the planner
                optimizer=optimizer,
            )
        return built[key]

    yield get
    for engine in built.values():
        engine.close()


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    optimizer=st.sampled_from(OPTIMIZERS),
    series=st.sampled_from(SERIES),
    access_mode=st.sampled_from(ACCESS_MODES),
    scoring=st.sampled_from(SCORINGS),
    shards=st.sampled_from(SHARD_COUNTS),
    top_k=st.sampled_from(TOP_KS),
)
def test_optimizer_never_changes_a_returned_byte(
    engines, optimizer, series, access_mode, scoring, shards, top_k
):
    query = QUERIES[series]
    # Reference: builtin heuristics, single shard, paper-faithful cursors -- the
    # seed configuration every optimization must reproduce exactly.
    reference = engines("off", "paper", scoring, 1).search(query, top_k=top_k)
    candidate = engines(optimizer, access_mode, scoring, shards).search(
        query, top_k=top_k
    )
    assert ranking(candidate) == ranking(reference)


# ------------------------------------------------------- expensive corners
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("series", SERIES)
def test_live_tier_matches_static_reference(small_synthetic, optimizer, series):
    static = FullTextEngine.from_collection(
        small_synthetic, scoring="tfidf", access_mode="fast", optimizer="off"
    )
    live = FullTextEngine.from_collection(
        small_synthetic,
        scoring="tfidf",
        access_mode="fast",
        live=True,
        optimizer=optimizer,
    )
    query = QUERIES[series]
    assert ranking(live.search(query)) == ranking(static.search(query))
    assert ranking(live.search(query, top_k=5)) == ranking(
        static.search(query, top_k=5)
    )
    static.close()
    live.close()
