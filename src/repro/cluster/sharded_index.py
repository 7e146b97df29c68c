"""A collection partitioned into independently-indexed shards.

:class:`ShardedIndex` is the storage side of the cluster subsystem: it splits
a :class:`~repro.corpus.collection.Collection` into ``N`` sub-collections
with a pluggable :mod:`~repro.cluster.partition` strategy and builds one
:class:`~repro.index.inverted_index.InvertedIndex` per shard.  Node ids are
global (a shard keeps the original ids), so per-shard evaluation results
merge without translation, and every node lives in exactly one shard, which
is what makes per-shard evaluation of the paper's per-node semantics exact.

Incremental appends route through the same partitioner and move
:attr:`ShardedIndex.generation`, the counter every coordinator on top reads
once per query to re-bind scoring, re-plan and stop hitting stale cache
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cluster.partition import Partitioner, make_partitioner, partition_collection
from repro.cluster.stats import AggregatedStatistics
from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.exceptions import ClusterError
from repro.index.inverted_index import InvertedIndex


@dataclass
class Shard:
    """One shard: an id plus its private inverted index."""

    shard_id: int
    index: InvertedIndex

    @property
    def collection(self) -> Collection:
        return self.index.collection

    def describe(self) -> dict[str, int]:
        """Size figures used by ``repro shard-stats`` and the benchmarks."""
        postings = sum(pl.document_frequency() for pl in self.index.posting_lists())
        positions = sum(pl.total_positions() for pl in self.index.posting_lists())
        return {
            "shard": self.shard_id,
            "nodes": self.index.node_count(),
            "tokens": len(self.index.tokens()),
            "postings": postings,
            "positions": positions,
            "memory_bytes": self.index.memory_footprint()["total_bytes"],
        }


class ShardedIndex:
    """``N`` inverted-index shards behind one collection-level facade."""

    def __init__(
        self,
        collection: Collection,
        num_shards: int,
        partitioner: "str | Partitioner" = "hash",
    ) -> None:
        if num_shards < 1:
            raise ClusterError(f"need at least one shard, got {num_shards}")
        self.collection = collection
        self.partitioner = make_partitioner(partitioner)
        shard_collections, assignment = partition_collection(
            collection, num_shards, self.partitioner
        )
        self.shards = [
            Shard(shard_id, self._build_shard_index(shard_collection, shard_id))
            for shard_id, shard_collection in enumerate(shard_collections)
        ]
        self._assignment = assignment
        node_ids = collection.node_ids()
        self._max_node_id = node_ids[-1] if node_ids else None
        self._statistics: AggregatedStatistics | None = None
        #: Moves exactly when query results may change (see :meth:`add_node`).
        self.generation = 0

    def _build_shard_index(self, shard_collection: Collection, shard_id: int):
        """Build one shard's index; the live subclass overrides this hook."""
        return InvertedIndex(shard_collection)

    @classmethod
    def from_collection(
        cls,
        collection: Collection,
        num_shards: int,
        partitioner: "str | Partitioner" = "hash",
    ) -> "ShardedIndex":
        """Build a sharded index (alias of the constructor, mirroring
        :meth:`InvertedIndex.from_collection`)."""
        return cls(collection, num_shards, partitioner)

    # ------------------------------------------------------------- accessors
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def __iter__(self) -> Iterator[Shard]:
        return iter(self.shards)

    def node_count(self) -> int:
        """Total nodes over all shards (the global ``cnodes``)."""
        return len(self.collection)

    def node_ids(self) -> list[int]:
        """All node ids, ascending (global view)."""
        return self.collection.node_ids()

    def tokens(self) -> list[str]:
        """Every token indexed by at least one shard, sorted."""
        return sorted(self.statistics.vocabulary())

    def document_frequency(self, token: str) -> int:
        """Global ``df(t)`` summed over the shards."""
        return self.statistics.document_frequency(token)

    def shard_of(self, node_id: int) -> int:
        """The shard holding ``node_id``."""
        try:
            return self._assignment[node_id]
        except KeyError as exc:
            raise ClusterError(f"unknown node id {node_id}") from exc

    @property
    def statistics(self) -> AggregatedStatistics:
        """Lazily-aggregated global corpus statistics (df / N / norms)."""
        if self._statistics is None:
            self._statistics = AggregatedStatistics(
                [shard.index for shard in self.shards], self.collection
            )
        return self._statistics

    # ---------------------------------------------------- incremental updates
    def add_node(self, node: ContextNode) -> None:
        """Append one node: route it to its shard, keep the global view.

        Global node ids must be strictly increasing (the same append-only
        contract as :meth:`InvertedIndex.add_node`); within a shard they then
        are as well.  Statistics are dropped, then :attr:`generation` moves.
        """
        if self._max_node_id is not None and node.node_id <= self._max_node_id:
            from repro.exceptions import IndexError_

            raise IndexError_(
                f"cannot append node {node.node_id}: ids must be strictly "
                f"increasing (largest existing id is {self._max_node_id})"
            )
        ordinal = len(self.collection)
        shard_id = self.partitioner.assign(node, ordinal, self.num_shards)
        if not 0 <= shard_id < self.num_shards:
            raise ClusterError(
                f"partitioner {self.partitioner.describe()!r} assigned node "
                f"{node.node_id} to shard {shard_id} of {self.num_shards}"
            )
        self.shards[shard_id].index.add_node(node)
        self.collection.add(node)
        self._assignment[node.node_id] = shard_id
        self._max_node_id = node.node_id
        self._statistics = None
        self.generation += 1

    def add_text(self, text: str, tokenizer=None, metadata=None) -> int:
        """Tokenize ``text``, append it as a new node, and return its id."""
        node_id = self.next_node_id()
        node = ContextNode.from_text(node_id, text, tokenizer, metadata=metadata)
        self.add_node(node)
        return node_id

    def next_node_id(self) -> int:
        """The id :meth:`add_text` would assign next (global, not per shard)."""
        return 0 if self._max_node_id is None else self._max_node_id + 1

    # ------------------------------------------------------------ diagnostics
    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard size figures, one dict per shard in shard order."""
        return [shard.describe() for shard in self.shards]

    def memory_footprint(self) -> dict[str, int]:
        """Columnar posting-storage bytes aggregated over every shard.

        The same shape as :meth:`InvertedIndex.memory_footprint`, summed
        shard-by-shard; surfaced by ``repro shard-stats``.
        """
        totals = {
            "node_ids_bytes": 0,
            "entry_bounds_bytes": 0,
            "offsets_bytes": 0,
            "structure_bytes": 0,
        }
        for shard in self.shards:
            breakdown = shard.index.memory_footprint()
            for key in totals:
                totals[key] += breakdown[key]
        totals["total_bytes"] = sum(totals.values())
        return totals

    def validate(self) -> None:
        """Check every shard's index invariants plus the partition itself."""
        seen: set[int] = set()
        for shard in self.shards:
            shard.index.validate()
            for node_id in shard.index.node_ids():
                if node_id in seen:
                    raise ClusterError(
                        f"node {node_id} appears in more than one shard"
                    )
                if self._assignment.get(node_id) != shard.shard_id:
                    raise ClusterError(
                        f"node {node_id} is in shard {shard.shard_id} but "
                        f"assigned to {self._assignment.get(node_id)}"
                    )
                seen.add(node_id)
        if seen != set(self.collection.node_ids()):
            raise ClusterError("shards do not cover exactly the collection")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedIndex(nodes={self.node_count()}, shards={self.num_shards}, "
            f"partitioner={self.partitioner.describe()!r})"
        )
