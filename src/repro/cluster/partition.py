"""Pluggable partitioners: how a collection is split across shards.

A partitioner maps every :class:`~repro.corpus.document.ContextNode` to a
shard number in ``[0, num_shards)``.  The assignment must be deterministic
for a given collection so that a sharded index can be rebuilt identically
(e.g. after a storage round-trip) and so that incremental appends land on a
predictable shard.

Three strategies are provided:

* ``hash`` -- multiplicative hash of the node id.  Consecutive ids spread
  across shards without clustering, and the placement of a node never depends
  on what else is in the collection (stable under appends).
* ``round-robin`` -- nodes go to shards in arrival order (``i % num_shards``).
  Gives the tightest balance but placement depends on insertion order.
* ``metadata:<key>`` -- hash of a metadata value, so all nodes sharing the
  value (e.g. a tenant or source file) land on the same shard.  Nodes missing
  the key fall back to the hash strategy.
"""

from __future__ import annotations

import zlib
from typing import Callable, Iterable

from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.exceptions import ClusterError

#: Knuth's multiplicative constant; spreads consecutive node ids.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = 0xFFFFFFFF


class Partitioner:
    """Base class of shard-assignment strategies."""

    name: str = "partitioner"

    def assign(self, node: ContextNode, ordinal: int, num_shards: int) -> int:
        """Shard number for ``node``; ``ordinal`` is its arrival position."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable name used in error messages and ``repr``."""
        return self.name


class HashPartitioner(Partitioner):
    """Multiplicative hash of the node id (the default strategy)."""

    name = "hash"

    def assign(self, node: ContextNode, ordinal: int, num_shards: int) -> int:
        return ((node.node_id * _HASH_MULTIPLIER) & _HASH_MASK) % num_shards


class RoundRobinPartitioner(Partitioner):
    """Nodes go to shards in arrival order; tightest possible balance."""

    name = "round-robin"

    def assign(self, node: ContextNode, ordinal: int, num_shards: int) -> int:
        return ordinal % num_shards


class MetadataPartitioner(Partitioner):
    """Co-locate nodes sharing a metadata value on one shard."""

    name = "metadata"

    def __init__(self, key: str) -> None:
        if not key:
            raise ClusterError("the metadata partitioner needs a non-empty key")
        self.key = key
        self._fallback = HashPartitioner()

    def assign(self, node: ContextNode, ordinal: int, num_shards: int) -> int:
        value = node.metadata.get(self.key)
        if value is None:
            return self._fallback.assign(node, ordinal, num_shards)
        return zlib.crc32(str(value).encode("utf-8")) % num_shards

    def describe(self) -> str:
        return f"metadata:{self.key}"


_PARTITIONER_FACTORIES: dict[str, Callable[[], Partitioner]] = {
    "hash": HashPartitioner,
    "round-robin": RoundRobinPartitioner,
}


def make_partitioner(spec: "str | Partitioner") -> Partitioner:
    """Resolve a partitioner from a name (``hash``, ``round-robin``,
    ``metadata:<key>``) or pass an instance through unchanged."""
    if isinstance(spec, Partitioner):
        return spec
    if not isinstance(spec, str):
        raise ClusterError(
            f"partitioner must be a name or a Partitioner, got {type(spec).__name__}"
        )
    name = spec.lower()
    if name.startswith("metadata:"):
        return MetadataPartitioner(spec.split(":", 1)[1])
    factory = _PARTITIONER_FACTORIES.get(name)
    if factory is None:
        raise ClusterError(
            f"unknown partitioner {spec!r}; expected one of "
            f"{sorted(_PARTITIONER_FACTORIES)} or 'metadata:<key>'"
        )
    return factory()


def partition_collection(
    collection: Collection,
    num_shards: int,
    partitioner: "str | Partitioner" = "hash",
) -> tuple[list[Collection], dict[int, int]]:
    """Split ``collection`` into ``num_shards`` sub-collections.

    Returns ``(shard_collections, assignment)`` where ``assignment`` maps each
    node id to its shard.  Every shard collection keeps the original node ids,
    so per-shard evaluation results can be merged without translation; empty
    shards are legal (a shard simply matches nothing).
    """
    if num_shards < 1:
        raise ClusterError(f"need at least one shard, got {num_shards}")
    partitioner = make_partitioner(partitioner)
    buckets: list[dict[int, ContextNode]] = [{} for _ in range(num_shards)]
    assignment: dict[int, int] = {}
    for ordinal, node in enumerate(collection):
        shard = partitioner.assign(node, ordinal, num_shards)
        if not 0 <= shard < num_shards:
            raise ClusterError(
                f"partitioner {partitioner.describe()!r} assigned node "
                f"{node.node_id} to shard {shard} of {num_shards}"
            )
        buckets[shard][node.node_id] = node
        assignment[node.node_id] = shard
    shards = [
        Collection(bucket, f"{collection.name}-shard{shard_id}")
        for shard_id, bucket in enumerate(buckets)
    ]
    return shards, assignment


def balance_report(shard_sizes: Iterable[int]) -> dict[str, float]:
    """Balance metrics of a shard layout (``"balance"`` in ``repro stats``)."""
    sizes = list(shard_sizes)
    if not sizes:
        return {"shards": 0, "min": 0, "max": 0, "mean": 0.0, "imbalance": 0.0}
    mean = sum(sizes) / len(sizes)
    return {
        "shards": len(sizes),
        "min": min(sizes),
        "max": max(sizes),
        "mean": mean,
        # max/mean - 1: 0.0 is a perfectly even layout.
        "imbalance": (max(sizes) / mean - 1.0) if mean else 0.0,
    }
