"""Tests for LiveShardedIndex: routed writes + generation-keyed caching."""

from __future__ import annotations

import pytest

from repro.cluster import LiveShardedIndex, ShardedIndex
from repro.core.engine import FullTextEngine
from repro.corpus import Collection
from repro.exceptions import ClusterError
from repro.segments import LiveIndex


@pytest.fixture
def collection() -> Collection:
    return Collection.from_texts(
        [
            "usability of software systems",
            "software task completion",
            "task analysis methods",
            "efficient software testing",
            "testing usability in practice",
        ],
        name="live-cluster",
    )


def test_shards_are_live_indexes(collection):
    sharded = LiveShardedIndex(collection, 3)
    assert all(isinstance(shard.index, LiveIndex) for shard in sharded)
    sharded.validate()
    sharded.close()


def test_writes_route_to_the_owning_shard(collection):
    sharded = LiveShardedIndex(collection, 3, flush_threshold=2)
    new_id = sharded.add_text("a freshly added document")
    owner = sharded.shard_of(new_id)
    assert new_id in sharded.shards[owner].index.collection
    sharded.update_text(0, "rewritten content entirely")
    assert sharded.collection.get(0).tokens == ["rewritten", "content", "entirely"]
    assert sharded.shards[sharded.shard_of(0)].index.collection.get(0).tokens == [
        "rewritten", "content", "entirely",
    ]
    assert sharded.delete_node(1)
    assert not sharded.delete_node(1)
    assert 1 not in sharded.collection
    sharded.validate()
    sharded.close()


def test_update_unknown_node_raises(collection):
    sharded = LiveShardedIndex(collection, 2)
    with pytest.raises(ClusterError):
        sharded.update_text(99, "nope")
    sharded.close()


def test_generation_counts_mutations_not_maintenance(collection):
    sharded = LiveShardedIndex(collection, 2, flush_threshold=2)
    start = sharded.generation
    sharded.add_text("one more document")
    sharded.update_text(0, "different text")
    sharded.delete_node(2)
    assert sharded.generation == start + 3
    assert not sharded.delete_node(2)  # nothing left to delete: no move
    generation = sharded.generation
    sharded.flush()
    sharded.compact()
    assert sharded.generation == generation  # maintenance is free
    sharded.close()


def test_cache_survives_flush_and_compact_but_not_mutations(collection):
    engine = FullTextEngine.from_collection(
        collection, shards=2, live=True, flush_threshold=2, cache_size=32
    )
    first = engine.search("'software'")
    assert first.metadata["cache"] == "miss"
    assert engine.search("'software'").metadata["cache"] == "hit"
    engine.flush()
    engine.compact()
    # Maintenance does not change the generation: still a hit.
    assert engine.search("'software'").metadata["cache"] == "hit"
    engine.add_document("software again")
    # A mutation moves the generation: the old entry is unreachable.
    refreshed = engine.search("'software'")
    assert refreshed.metadata["cache"] == "miss"
    stats = engine.cache_stats()
    assert (stats["hits"], stats["misses"]) == (2, 2)
    engine.close()


def test_cached_results_are_correct_after_interleaved_mutations(collection):
    engine = FullTextEngine.from_collection(
        collection, shards=2, live=True, flush_threshold=2, cache_size=32
    )
    assert engine.search("'software'").node_ids == [0, 1, 3]
    engine.delete_document(0)
    assert engine.search("'software'").node_ids == [1, 3]
    engine.update_document(1, "no relevant tokens")
    assert engine.search("'software'").node_ids == [3]
    new_id = engine.add_document("software strikes back")
    assert engine.search("'software'").node_ids == [3, new_id]
    engine.close()


def test_memory_footprint_aggregates_shards(collection):
    static = ShardedIndex(collection, 3)
    footprint = static.memory_footprint()
    assert footprint["total_bytes"] > 0
    assert footprint["total_bytes"] == sum(
        footprint[key] for key in footprint if key != "total_bytes"
    )
    per_shard = sum(
        shard.index.memory_footprint()["total_bytes"] for shard in static
    )
    assert footprint["total_bytes"] == per_shard

    live = LiveShardedIndex(collection, 3)
    assert live.memory_footprint()["total_bytes"] > 0
    live.close()


def test_segment_stats_tag_rows_with_shard(collection):
    sharded = LiveShardedIndex(collection, 2, flush_threshold=2)
    sharded.add_text("extra doc lands in some shard")
    rows = sharded.segment_stats()
    assert rows and all("shard" in row for row in rows)
    assert {row["shard"] for row in rows} <= {0, 1}
    sharded.close()


def test_persistence_round_trip(tmp_path, collection):
    directory = tmp_path / "cluster"
    sharded = LiveShardedIndex(
        collection, 2, directory=directory, flush_threshold=2
    )
    new_id = sharded.add_text("persisted document")
    sharded.update_text(0, "revised revision")
    sharded.delete_node(1)
    sharded.close()

    reopened = LiveShardedIndex.open(directory, 2, flush_threshold=2)
    assert reopened.node_ids() == [0, 2, 3, 4, new_id]
    assert reopened.collection.get(0).tokens == ["revised", "revision"]
    assert reopened.shard_of(new_id) == sharded.shard_of(new_id)
    reopened.validate()
    reopened.close()


def test_open_rejects_wrong_shard_count(tmp_path, collection):
    from repro.exceptions import StorageError

    directory = tmp_path / "cluster"
    LiveShardedIndex(collection, 4, directory=directory).close()
    with pytest.raises(StorageError, match="4-shard"):
        LiveShardedIndex.open(directory, 2)
    reopened = LiveShardedIndex.open(directory, 4)
    assert reopened.node_count() == len(collection)
    reopened.close()


def test_scoring_refreshes_after_update_and_delete(collection):
    engine = FullTextEngine.from_collection(
        collection, shards=2, live=True, scoring="tfidf"
    )
    before = engine.scoring.statistics.node_count
    engine.delete_document(0)
    engine.search("'software'")  # triggers the stale-model refresh
    assert engine.scoring.statistics.node_count == before - 1
    engine.close()
