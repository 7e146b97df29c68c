"""Tests for the sharded index facade and aggregated statistics."""

from __future__ import annotations

import pytest

from repro.cluster import AggregatedStatistics, ShardedIndex
from repro.corpus import Collection
from repro.exceptions import ClusterError, IndexError_
from repro.index import InvertedIndex


@pytest.fixture
def collection() -> Collection:
    texts = [
        "usability testing of efficient software",
        "software measures how well users achieve task completion",
        "efficient task completion with usability in mind",
        "databases support full text search with inverted lists",
        "networks route packets between hosts efficiently",
        "software usability and software testing",
        "a short note",
    ]
    return Collection.from_texts(texts, name="sharded-test")


def test_shards_cover_the_collection_exactly(collection):
    sharded = ShardedIndex(collection, 3)
    sharded.validate()
    covered = sorted(
        nid for shard in sharded for nid in shard.index.node_ids()
    )
    assert covered == collection.node_ids()
    assert sharded.num_shards == 3
    assert sharded.node_count() == len(collection)


def test_shard_of_matches_partition(collection):
    sharded = ShardedIndex(collection, 3, "round-robin")
    for nid in collection.node_ids():
        shard_id = sharded.shard_of(nid)
        assert nid in sharded.shards[shard_id].index.collection
    with pytest.raises(ClusterError):
        sharded.shard_of(999)


def test_rejects_bad_shard_count(collection):
    with pytest.raises(ClusterError):
        ShardedIndex(collection, 0)


def test_aggregated_statistics_match_single_index(collection):
    single = InvertedIndex(collection).statistics
    for shards in (1, 2, 4, 7):
        aggregated = ShardedIndex(collection, shards).statistics
        assert isinstance(aggregated, AggregatedStatistics)
        assert aggregated.node_count == single.node_count
        assert aggregated.vocabulary() == single.vocabulary()
        for token in sorted(single.vocabulary()):
            assert aggregated.document_frequency(token) == single.document_frequency(token)
            assert aggregated.idf(token) == pytest.approx(single.idf(token), abs=1e-12)
        for nid in collection.node_ids():
            assert aggregated.unique_token_count(nid) == single.unique_token_count(nid)
            assert aggregated.node_length(nid) == single.node_length(nid)
            assert aggregated.node_l2_norm(nid) == pytest.approx(
                single.node_l2_norm(nid), abs=1e-12
            )


def test_aggregated_complexity_parameters_are_global(collection):
    single = InvertedIndex(collection).statistics.complexity_parameters()
    sharded = ShardedIndex(collection, 3).statistics.complexity_parameters()
    assert sharded.as_dict() == single.as_dict()


def test_document_frequency_sums_over_shards(collection):
    sharded = ShardedIndex(collection, 4)
    assert sharded.document_frequency("software") == 3
    assert sharded.document_frequency("absent-token") == 0
    assert "software" in sharded.tokens()


def test_add_text_routes_to_one_shard_and_refreshes_statistics(collection):
    sharded = ShardedIndex(collection, 3)
    before_df = sharded.document_frequency("zebra")
    node_id = sharded.add_text("a zebra crossed the road")
    assert node_id == 7
    shard_id = sharded.shard_of(node_id)
    assert node_id in sharded.shards[shard_id].index.collection
    assert sharded.document_frequency("zebra") == before_df + 1
    assert sharded.node_count() == 8
    sharded.validate()


def test_add_node_enforces_increasing_ids(collection):
    from repro.corpus import ContextNode

    sharded = ShardedIndex(collection, 2)
    with pytest.raises(IndexError_):
        sharded.add_node(ContextNode.from_text(3, "duplicate id"))


def test_add_node_rejects_out_of_range_partitioner_assignment(collection):
    from repro.cluster.partition import Partitioner
    from repro.corpus import ContextNode

    class Broken(Partitioner):
        name = "broken"

        def assign(self, node, ordinal, num_shards):
            return -1

    sharded = ShardedIndex(collection, 2)
    sharded.partitioner = Broken()
    with pytest.raises(ClusterError, match="assigned node"):
        sharded.add_node(ContextNode.from_text(100, "misrouted"))


def test_shard_stats_shape(collection):
    stats = ShardedIndex(collection, 3).shard_stats()
    assert [row["shard"] for row in stats] == [0, 1, 2]
    assert sum(row["nodes"] for row in stats) == len(collection)
    for row in stats:
        assert {"nodes", "tokens", "postings", "positions", "memory_bytes"} <= set(row)


def test_empty_shards_are_legal():
    tiny = Collection.from_texts(["only one document"], name="tiny")
    sharded = ShardedIndex(tiny, 4)
    sharded.validate()
    assert sum(len(shard.collection) for shard in sharded) == 1
