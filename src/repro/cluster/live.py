"""A sharded index whose shards are live (mutable) indexes.

:class:`LiveShardedIndex` combines the cluster layer with the live-indexing
subsystem: every shard runs its own
:class:`~repro.segments.live_index.LiveIndex` (private WAL, memtable,
sealed segments and compaction), and the cluster facade routes writes --
adds through the partitioner, updates and deletes through the global
``node_id -> shard`` assignment -- while the scatter-gather executor
evaluates queries shard by shard in the calling thread, unchanged (each
shard executor snapshots its shard per query).

Every routed write that may change results -- add, update, delete --
moves :attr:`generation` (inherited from :class:`ShardedIndex`); flushes and
compactions reorganise storage without touching results and leave it
alone, so cache entries keyed on it stay warm across maintenance.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.cluster.partition import Partitioner
from repro.cluster.sharded_index import ShardedIndex
from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.exceptions import ClusterError
from repro.segments.live_index import LiveIndex
from repro.segments.manager import (
    DEFAULT_COMPACTION_FANOUT,
    DEFAULT_FLUSH_THRESHOLD,
)
from repro.segments.stats import LiveStatistics
from repro.segments.wal import DEFAULT_SYNC_EVERY


class LiveShardedIndex(ShardedIndex):
    """``N`` live-index shards behind the sharded-index facade."""

    def __init__(
        self,
        collection: Collection,
        num_shards: int,
        partitioner: "str | Partitioner" = "hash",
        *,
        directory: "Path | str | None" = None,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        compaction_fanout: int = DEFAULT_COMPACTION_FANOUT,
        sync_every: int = DEFAULT_SYNC_EVERY,
        auto_compact: bool = False,
    ) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._live_options = {
            "flush_threshold": flush_threshold,
            "compaction_fanout": compaction_fanout,
            "sync_every": sync_every,
            "auto_compact": auto_compact,
        }
        self._write_lock = threading.RLock()
        self._check_persisted_layout(num_shards)
        super().__init__(collection, num_shards, partitioner)
        self._adopt_restored_shards()
        #: Writer-side global statistics, kept in step with ``collection`` by
        #: the routed mutations below; readers get frozen generations of it.
        self._live_statistics = LiveStatistics(self.collection)
        for node in self.collection.nodes.values():
            self._live_statistics.apply(None, node)

    def _check_persisted_layout(self, num_shards: int) -> None:
        """Refuse to open a persisted cluster with the wrong shard count.

        Opening a 4-shard directory as 2 shards would silently load half the
        corpus (and then rewrite manifests for the divergent view, orphaning
        the rest); the shard count is part of the on-disk layout, so a
        mismatch is an error, not a reinterpretation.
        """
        if self._directory is None or not self._directory.exists():
            return
        persisted = sorted(
            path.name
            for path in self._directory.glob("shard-*")
            if path.is_dir() and (path / "MANIFEST.json").exists()
        )
        if persisted and len(persisted) != num_shards:
            from repro.exceptions import StorageError

            raise StorageError(
                f"{self._directory} holds a {len(persisted)}-shard live "
                f"cluster ({', '.join(persisted)}); reopen it with "
                f"num_shards={len(persisted)}, not {num_shards}"
            )

    def _build_shard_index(self, shard_collection: Collection, shard_id: int):
        directory = (
            self._directory / f"shard-{shard_id:02d}"
            if self._directory is not None
            else None
        )
        return LiveIndex(
            shard_collection if len(shard_collection) else None,
            directory=directory,
            **self._live_options,
        )

    def _adopt_restored_shards(self) -> None:
        """Fold shard state restored from disk into the global view.

        Reopening a persisted cluster starts from an empty collection; each
        shard's :class:`LiveIndex` then restores its own documents, which
        must be reflected in the global collection and assignment map.
        """
        for shard in self.shards:
            for node in shard.index.collection:
                if node.node_id in self.collection:
                    continue
                self.collection.add(node)
                self._assignment[node.node_id] = shard.shard_id
                if self._max_node_id is None or node.node_id > self._max_node_id:
                    self._max_node_id = node.node_id

    @classmethod
    def open(
        cls,
        directory: "Path | str",
        num_shards: int,
        partitioner: "str | Partitioner" = "hash",
        **kwargs,
    ) -> "LiveShardedIndex":
        """Reopen a persisted live cluster (``num_shards`` must match)."""
        return cls(
            Collection({}, "live-cluster"),
            num_shards,
            partitioner,
            directory=directory,
            **kwargs,
        )

    # ---------------------------------------------------- incremental updates
    def add_node(self, node: ContextNode) -> None:
        with self._write_lock:
            super().add_node(node)
            self._live_statistics.apply(None, node)

    def update_node(self, node: ContextNode) -> None:
        """Replace a live document's content on whichever shard holds it."""
        with self._write_lock:
            shard_id = self.shard_of(node.node_id)
            self.shards[shard_id].index.update_node(node)
            self._live_statistics.apply(self.collection.replace(node), node)
            self._statistics = None
            self.generation += 1

    def update_text(self, node_id: int, text: str, tokenizer=None, metadata=None) -> None:
        node = ContextNode.from_text(node_id, text, tokenizer, metadata=metadata)
        self.update_node(node)

    def delete_node(self, node_id: int) -> bool:
        """Delete a document; returns False when the id is not live."""
        with self._write_lock:
            shard_id = self._assignment.get(node_id)
            if shard_id is None:
                return False
            if not self.shards[shard_id].index.delete_node(node_id):
                raise ClusterError(
                    f"node {node_id} assigned to shard {shard_id} but not live there"
                )
            self._live_statistics.apply(self.collection.remove(node_id), None)
            del self._assignment[node_id]
            self._statistics = None
            self.generation += 1
            return True

    # ------------------------------------------------------------- accessors
    @property
    def statistics(self) -> LiveStatistics:
        """Exact survivor-based global statistics (one generation per mutation).

        Frozen under the write lock so the copy and the per-shard snapshots
        cannot interleave with a routed mutation; readers keep using the
        resulting object safely after the lock is released.
        """
        with self._write_lock:
            if self._statistics is None:
                self._statistics = self._live_statistics.freeze(
                    tuple(shard.index.snapshot() for shard in self.shards)
                )
            return self._statistics

    # ----------------------------------------------------------- maintenance
    def flush(self) -> int:
        """Seal every shard's memtable; returns the number of new segments."""
        return sum(
            1 for shard in self.shards if shard.index.flush() is not None
        )

    def compact(self) -> dict[str, int]:
        """Fully compact every shard; merged per-shard reports summed."""
        totals = {"merges": 0, "segments_merged": 0}
        for shard in self.shards:
            report = shard.index.compact()
            for key in totals:
                totals[key] += report[key]
        return totals

    def maybe_compact(self) -> dict[str, int]:
        """One tiered-compaction round on every shard."""
        totals = {"merges": 0, "segments_merged": 0}
        for shard in self.shards:
            report = shard.index.maybe_compact()
            for key in totals:
                totals[key] += report[key]
        return totals

    def start_auto_compaction(self, interval: float = 0.05) -> None:
        for shard in self.shards:
            shard.index.start_auto_compaction(interval)

    def stop_auto_compaction(self) -> None:
        for shard in self.shards:
            shard.index.stop_auto_compaction()

    def close(self) -> None:
        """Close every shard (stop compactors, make the WALs durable)."""
        for shard in self.shards:
            shard.index.close()

    def segment_stats(self) -> list[dict[str, int]]:
        """Per-segment rows over all shards, tagged with their shard id."""
        rows = []
        for shard in self.shards:
            for row in shard.index.segment_stats():
                rows.append({"shard": shard.shard_id, **row})
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LiveShardedIndex(nodes={self.node_count()}, "
            f"shards={self.num_shards}, generation={self.generation})"
        )
