"""Packed v4 indexes answer queries byte-identically to in-memory indexes.

EXPLAIN ANALYZE over a :class:`PackedInvertedIndex` (mmap-backed,
zero-copy) reports the in-memory index's ids, scores, operator tree and
per-cursor counts in both access modes, and the packed statistics and
surface equal the in-memory ones.  Ids, scores and order against the
calculus, for every scoring model and a top-k cut, are the ``packed``
shapes of ``tests/equivalence``.
"""

from __future__ import annotations

import pytest

from repro.core.query import parse_query
from repro.corpus import Collection
from repro.engine.executor import Executor
from repro.exceptions import IndexError_
from repro.index import InvertedIndex, PackedInvertedIndex, save_packed_index
from repro.model.predicates import default_registry
from repro.scoring.base import get_model

TEXTS = [
    "usability testing of efficient software",
    "software measures how well users achieve task completion",
    "efficient task completion with usability in mind",
    "databases support full text search with inverted lists",
    "networks route packets between hosts efficiently",
    "software usability and software testing",
    "usability of software task completion software",
    "efficient inverted lists for efficient search",
    "task completion and task analysis for software",
    "search engines rank documents by usability measures",
]

QUERIES = [
    # BOOL (positive and with negation)
    "'software'",
    "'software' AND 'usability'",
    "'software' OR 'databases'",
    "'efficient' AND NOT 'networks'",
    "NOT 'software'",
    # PPRED (positive position predicates)
    "dist('task', 'completion', 2)",
    "SOME p1 SOME p2 (p1 HAS 'software' AND p2 HAS 'usability' "
    "AND ordered(p1, p2))",
    # NPRED (negative position predicates)
    "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' "
    "AND not_ordered(p1, p2))",
]


@pytest.fixture(scope="module")
def indexes(tmp_path_factory):
    collection = Collection.from_texts(TEXTS, name="packed-equivalence")
    memory = InvertedIndex(collection)
    path = tmp_path_factory.mktemp("packed") / "index.seg"
    save_packed_index(memory, path)
    packed = PackedInvertedIndex.open(path)
    yield memory, packed
    packed.close()


def _executors(indexes, scoring_name, access_mode):
    memory, packed = indexes
    registry = default_registry()
    executors = []
    for index in (memory, packed):
        scoring = (
            None if scoring_name == "none"
            else get_model(scoring_name, index.statistics)
        )
        executors.append(
            Executor(index, registry, scoring, access_mode=access_mode)
        )
    return executors


def _without_wall_clock(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "elapsed_ms"}


@pytest.mark.parametrize("access_mode", ["paper", "fast"])
def test_packed_explain_is_byte_identical(indexes, access_mode):
    """EXPLAIN ANALYZE over the packed index reports the in-memory index's
    operator tree, per-cursor counts, top-k and plan; only the wall clock
    differs."""
    reference, packed = _executors(indexes, "tfidf", access_mode)
    for text in QUERIES:
        query = parse_query(text).node
        expected = reference.execute(query, top_k=4, explain=True)
        actual = packed.execute(query, top_k=4, explain=True)
        assert actual.node_ids == expected.node_ids
        assert actual.ranked() == expected.ranked()
        assert _without_wall_clock(actual.explain) == _without_wall_clock(
            expected.explain
        )


def test_packed_statistics_match_in_memory(indexes):
    memory, packed = indexes
    reference = memory.statistics
    actual = packed.statistics
    assert actual.node_count == reference.node_count
    for token in memory.tokens():
        assert actual.document_frequency(token) == reference.document_frequency(
            token
        )
        assert actual.idf(token) == reference.idf(token)
    for node_id in memory.collection.node_ids():
        assert actual.node_length(node_id) == reference.node_length(node_id)
        assert actual.node_l2_norm(node_id) == reference.node_l2_norm(node_id)


def test_packed_index_surface(indexes):
    memory, packed = indexes
    assert packed.tokens() == memory.tokens()
    assert packed.node_count() == memory.node_count()
    assert packed.collection.node_ids() == memory.collection.node_ids()
    assert len(packed.any_list()) == len(memory.any_list())
    node = packed.collection.nodes[0]
    assert node.occurrences == memory.collection.nodes[0].occurrences
    with pytest.raises(IndexError_):
        packed.add_node(node)
