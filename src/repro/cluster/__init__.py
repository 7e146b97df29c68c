"""Sharded indexing and scatter-gather query execution.

This package scales the single-index engine stack horizontally while keeping
the paper's semantics and scores bit-identical.  A single index is the
one-shard case: every engine dispatches through the same coordinator.

* :mod:`repro.cluster.partition`     -- pluggable shard-assignment strategies
  (hash-by-node-id, round-robin, by-metadata-key);
* :mod:`repro.cluster.sharded_index` -- ``N`` private inverted indexes behind
  one collection-level facade, with incremental appends that move its
  ``generation``;
* :mod:`repro.cluster.stats`         -- globally-aggregated df / N / norm
  statistics so sharded scoring equals single-index scoring;
* :mod:`repro.cluster.scatter`       -- the scatter-gather coordinator: one
  plan per query, shards evaluated one after another in the calling
  thread, scoring and planner memo re-bound when the generation moves;
* :mod:`repro.cluster.merge`         -- merging of the sorted per-shard id
  streams and rankings;
* :mod:`repro.cluster.cache`         -- the LRU result cache keyed on
  normalized plan + engine + generation, serving smaller
  top-k requests from a warm wider entry (exact rankings are prefixes of
  each other);
* :mod:`repro.cluster.live`          -- live (mutable) shards: one
  :class:`~repro.segments.live_index.LiveIndex` per shard with routed
  updates/deletes, each moving the generation.

The high-level entry point is
``FullTextEngine.from_collection(collection, shards=N)``.
"""

from repro.cluster.cache import DEFAULT_CACHE_SIZE, QueryCache, make_cache_key
from repro.cluster.live import LiveShardedIndex
from repro.cluster.merge import (
    MergedEvaluationResult,
    merge_cursor_stats,
    merge_ranked,
    merge_shard_results,
)
from repro.cluster.partition import (
    HashPartitioner,
    MetadataPartitioner,
    Partitioner,
    RoundRobinPartitioner,
    balance_report,
    make_partitioner,
    partition_collection,
)
from repro.cluster.scatter import ScatterGatherExecutor
from repro.cluster.sharded_index import Shard, ShardedIndex
from repro.cluster.stats import AggregatedStatistics

__all__ = [
    "AggregatedStatistics",
    "DEFAULT_CACHE_SIZE",
    "HashPartitioner",
    "LiveShardedIndex",
    "MergedEvaluationResult",
    "MetadataPartitioner",
    "Partitioner",
    "QueryCache",
    "RoundRobinPartitioner",
    "ScatterGatherExecutor",
    "Shard",
    "ShardedIndex",
    "balance_report",
    "make_cache_key",
    "make_partitioner",
    "merge_cursor_stats",
    "merge_ranked",
    "merge_shard_results",
    "partition_collection",
]
