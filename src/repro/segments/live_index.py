"""The live index: WAL + segment manager behind the index read interface.

:class:`LiveIndex` is the mutable-corpus counterpart of
:class:`~repro.index.inverted_index.InvertedIndex`.  It accepts adds,
updates and deletes while serving queries, by composing:

* a :class:`~repro.segments.manager.SegmentManager` (memtable + sealed
  segments + tombstones + compaction) for the in-memory state, and
* optionally -- when built with a ``directory`` -- a durability layer:
  every mutation is appended to a :class:`~repro.segments.wal.WriteAheadLog`
  *before* it is applied, sealed segments are persisted as immutable
  packed v4 files (v3 JSON segment files of older directories still
  restore), and an atomically
  replaced ``MANIFEST.json`` records which segment files and tombstones are
  current plus the highest WAL sequence number they cover.

Recovery on open is therefore: load the manifest's segments, then replay
every durable WAL record newer than the manifest's ``applied_seq``.  Replay
is idempotent (re-adding a live id or re-deleting a dead one is a no-op),
so a crash between "manifest written" and "WAL truncated" cannot duplicate
or lose a document.

Reads mirror :class:`InvertedIndex` closely enough that every evaluation
engine runs unchanged; per-query consistency comes from
:meth:`LiveIndex.snapshot`, which the executor takes once per query.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Iterator

from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.exceptions import StorageError
from repro.index.cursor import CursorFactory, PAPER_MODE
from repro.index.packed import (
    is_packed_segment,
    open_packed_segment,
    write_packed_segment,
)
from repro.index.storage import (
    PACKED_SEGMENT_VERSION,
    SEGMENT_FORMAT_VERSION,
    _node_from_dict,
    _node_to_dict,
    load_segment,
)
from repro.segments.manager import (
    DEFAULT_COMPACTION_FANOUT,
    DEFAULT_FLUSH_THRESHOLD,
    SegmentManager,
    SegmentSnapshot,
)
from repro.segments.sealed import PackedSegmentData, SealedSegment, SegmentData
from repro.segments.stats import LiveStatistics
from repro.segments.tombstones import TombstoneSet
from repro.segments.wal import DEFAULT_SYNC_EVERY, WriteAheadLog

#: File names inside a live-index directory.
MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.jsonl"
SEGMENT_DIR = "segments"

def _fsync_path(path: Path) -> None:
    """fsync a file or directory by path (directory entries need it too)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platforms that cannot open directories read-only
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class LiveIndex:
    """An inverted index that accepts adds, updates and deletes while serving."""

    def __init__(
        self,
        collection: Collection | None = None,
        *,
        directory: "Path | str | None" = None,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        compaction_fanout: int = DEFAULT_COMPACTION_FANOUT,
        sync_every: int = DEFAULT_SYNC_EVERY,
        auto_compact: bool = False,
        compaction_interval: float = 0.05,
    ) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._wal: WriteAheadLog | None = None
        self._durable_seq = 0
        self._replaying = False
        self._persisted_generations: set[int] = set()
        #: Actual file per persisted generation -- restored segments may use
        #: a different layout (suffix) than the configured one.
        self._segment_files: dict[int, Path] = {}
        self._packed_readers: list = []
        self._statistics: LiveStatistics | None = None
        self._stats_seq = -1
        manifest = None
        if self.directory is not None:
            manifest_path = self.directory / MANIFEST_NAME
            if manifest_path.exists():
                if collection is not None and len(collection):
                    raise StorageError(
                        f"{self.directory} already holds a live index; open it "
                        f"without an initial collection"
                    )
                manifest = self._read_manifest(manifest_path)
        self._manager = SegmentManager(
            collection if manifest is None else None,
            flush_threshold=flush_threshold,
            compaction_fanout=compaction_fanout,
            on_seal=self._handle_seal,
            on_compact=self._handle_compact,
        )
        if self.directory is not None:
            (self.directory / SEGMENT_DIR).mkdir(parents=True, exist_ok=True)
            if manifest is not None:
                self._restore(manifest)
            self._wal = WriteAheadLog(
                self.directory / WAL_NAME, sync_every=sync_every
            )
            if manifest is not None:
                self._replay_wal(manifest["applied_seq"])
            self._sync_disk_state()
        if auto_compact:
            self._manager.start_auto_compaction(compaction_interval)

    # -------------------------------------------------------------- builders
    @classmethod
    def from_collection(cls, collection: Collection, **kwargs) -> "LiveIndex":
        """Build a live index over an existing collection (bulk load)."""
        return cls(collection, **kwargs)

    @classmethod
    def open(cls, directory: "Path | str", **kwargs) -> "LiveIndex":
        """Open (or create) the live index persisted in ``directory``."""
        return cls(directory=directory, **kwargs)

    # --------------------------------------------------------------- writes
    def add_node(self, node: ContextNode) -> None:
        """Index a new document; its id must not be currently live."""
        with self._manager.lock:
            self._manager.ensure_can_add(node)
            self._log({"op": "add", "node": _node_to_dict(node)})
            self._manager.add(node)

    def add_text(self, text: str, tokenizer=None, metadata=None) -> int:
        """Tokenize ``text``, index it as a new node, and return its id."""
        with self._manager.lock:
            node_id = self.next_node_id()
            node = ContextNode.from_text(node_id, text, tokenizer, metadata=metadata)
            self.add_node(node)
            return node_id

    def update_node(self, node: ContextNode) -> None:
        """Replace the content of a live document (same node id)."""
        with self._manager.lock:
            if not self._manager.is_live(node.node_id):
                from repro.exceptions import IndexError_

                raise IndexError_(
                    f"cannot update node {node.node_id}: it is not indexed"
                )
            self._log({"op": "update", "node": _node_to_dict(node)})
            self._manager.update(node)

    def update_text(self, node_id: int, text: str, tokenizer=None, metadata=None) -> None:
        """Tokenize ``text`` and swap it in as the new revision of ``node_id``."""
        node = ContextNode.from_text(node_id, text, tokenizer, metadata=metadata)
        self.update_node(node)

    def delete_node(self, node_id: int) -> bool:
        """Delete a document; returns False when the id is not live."""
        with self._manager.lock:
            if not self._manager.is_live(node_id):
                return False
            self._log({"op": "delete", "id": node_id})
            return self._manager.delete(node_id)

    def next_node_id(self) -> int:
        """The next never-used node id (monotonic across deletes)."""
        return self._manager.next_node_id()

    # ----------------------------------------------------------- maintenance
    def flush(self) -> SealedSegment | None:
        """Seal the memtable into an immutable segment (and persist it)."""
        return self._manager.flush()

    def compact(self) -> dict[str, int]:
        """Merge every sealed segment into one, purging all tombstones."""
        return self._manager.compact()

    def maybe_compact(self) -> dict[str, int]:
        """Run one round of tiered compaction if any size tier is full."""
        return self._manager.maybe_compact()

    def start_auto_compaction(self, interval: float = 0.05) -> None:
        self._manager.start_auto_compaction(interval)

    def stop_auto_compaction(self) -> None:
        self._manager.stop_auto_compaction()

    def close(self) -> None:
        """Stop background work and make the WAL durable (idempotent)."""
        self._manager.stop_auto_compaction()
        if self._wal is not None:
            self._wal.close()
        # Packed readers opened by _restore are deliberately left open: the
        # in-memory segments keep borrowed views of their pages, and reads
        # must survive close() (which only settles durability).  The OS
        # reclaims the mappings when the segments are garbage-collected.

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- reading
    def snapshot(self) -> SegmentSnapshot:
        """A consistent per-query view (the executor takes one per query)."""
        return self._manager.snapshot()

    @property
    def collection(self) -> Collection:
        """The live document store (surviving revisions only)."""
        return self._manager.collection

    @property
    def generation(self) -> int:
        """The mutation sequence number; changes iff results may change.

        Flushes and compactions reorganise storage without touching results,
        so they leave the generation alone -- result caches keyed on it stay
        warm across maintenance.
        """
        return self._manager.seq

    @property
    def manager(self) -> SegmentManager:
        return self._manager

    def node_count(self) -> int:
        return self._manager.live_count()

    def node_ids(self) -> list[int]:
        return self.collection.node_ids()

    def tokens(self) -> list[str]:
        """Every token with at least one surviving occurrence, sorted."""
        return sorted(self.statistics.vocabulary())

    def __contains__(self, token: str) -> bool:
        return self.document_frequency(token) > 0

    def document_frequency(self, token: str) -> int:
        """Exact ``df(t)`` over surviving documents (tombstones excluded)."""
        return self.statistics.document_frequency(token)

    def posting_list(self, token: str):
        """A size view of the logical list (see :class:`SegmentSnapshot`)."""
        return self.snapshot().posting_list(token)

    def any_list(self):
        return self.snapshot().any_list()

    def posting_lists(self) -> Iterator:
        """The *physical* per-segment posting lists (tombstones included).

        Used by size accounting (``repro stats``, memory footprint) and the
        complexity parameters; logical reads go through cursors instead.
        """
        return self.snapshot().posting_lists()

    def open_cursor(
        self, token: str, factory: CursorFactory | None = None, mode: str = PAPER_MODE
    ):
        """Convenience single-call cursor (takes a fresh snapshot per call).

        Engines should not mix cursors from different calls; the executor
        uses :meth:`snapshot` so one query's cursors share one view.
        """
        return self.snapshot().open_cursor(token, factory, mode)

    def open_any_cursor(self, factory: CursorFactory | None = None, mode: str = PAPER_MODE):
        return self.snapshot().open_any_cursor(factory, mode)

    @property
    def statistics(self) -> LiveStatistics:
        """Exact survivor-based corpus statistics (one frozen generation per
        mutation generation, cut from the maintained tables on first use)."""
        with self._manager.lock:
            if self._statistics is None or self._stats_seq != self._manager.seq:
                self._statistics = self._manager.statistics.freeze(
                    (self._manager.snapshot(),)
                )
                self._stats_seq = self._manager.seq
            return self._statistics

    def memory_footprint(self) -> dict[str, int]:
        """Columnar byte sizes summed over every segment plus the memtable."""
        totals = {
            "node_ids_bytes": 0,
            "entry_bounds_bytes": 0,
            "offsets_bytes": 0,
            "structure_bytes": 0,
        }
        snapshot = self.snapshot()
        views = [segment.data for segment in snapshot.segments]
        if snapshot.memview is not None:
            views.append(snapshot.memview)
        for view in views:
            for key, value in view.memory_breakdown().items():
                totals[key] += value
        totals["total_bytes"] = sum(totals.values())
        return totals

    def segment_stats(self) -> list[dict[str, int]]:
        """Per-segment size rows (sealed first, memtable last)."""
        return self._manager.segment_stats()

    def wal_stats(self) -> dict[str, int]:
        """WAL counters (zeros when running without a directory)."""
        if self._wal is None:
            return {"appended": 0, "synced_batches": 0}
        return {
            "appended": self._wal.appended,
            "synced_batches": self._wal.synced_batches,
        }

    # ----------------------------------------------------- integrity checks
    def validate(self) -> None:
        """Check segment and location invariants; raise on violation."""
        from repro.exceptions import IndexError_

        with self._manager.lock:
            snapshot = self.snapshot()
            seen: dict[int, int] = {}
            for segment in snapshot.segments:
                dead = segment.tombstones.dead_ids(snapshot.seq)
                for posting_list in segment.data.lists.values():
                    posting_list.validate()
                segment.data.any_list.validate()
                for node_id in segment.data.node_ids():
                    if node_id in dead:
                        continue
                    if node_id in seen:
                        raise IndexError_(
                            f"node {node_id} is live in two segments "
                            f"({seen[node_id]} and {segment.generation})"
                        )
                    seen[node_id] = segment.generation
            if snapshot.memview is not None:
                for node_id in snapshot.memview.node_ids():
                    if node_id in seen:
                        raise IndexError_(
                            f"node {node_id} is live in segment {seen[node_id]} "
                            f"and the memtable"
                        )
                    seen[node_id] = -1
            if set(seen) != set(self.collection.node_ids()):
                raise IndexError_(
                    "live segments do not cover exactly the collection"
                )

    # ---------------------------------------------------------- persistence
    def _log(self, record: dict[str, Any]) -> None:
        if self._wal is not None:
            record["seq"] = self._manager.seq + 1
            self._wal.append(record)

    def _segment_path(self, generation: int) -> Path:
        """Where a new seal of ``generation`` goes: every seal writes packed
        v4; restore still reads v3 JSON files a directory may hold."""
        return self.directory / SEGMENT_DIR / f"seg-{generation:08d}.seg"

    def _handle_seal(self, segment: SealedSegment) -> None:
        # Called by the manager with its lock held and the memtable empty,
        # so every committed mutation is covered by segments + tombstones.
        self._durable_seq = self._manager.seq
        if self.directory is None or self._replaying:
            return
        self._persist_segment(segment)
        self._write_manifest()
        if self._wal is not None:
            self._wal.reset()

    def _handle_compact(
        self, merged: SealedSegment, sources: list[SealedSegment]
    ) -> None:
        if self.directory is None or self._replaying:
            return
        self._persist_segment(merged)
        self._write_manifest()
        # Only now are the source files unreferenced; drop them best-effort.
        for source in sources:
            self._persisted_generations.discard(source.generation)
            path = self._segment_files.pop(
                source.generation, self._segment_path(source.generation)
            )
            try:
                path.unlink()
            except OSError:
                pass

    def _persist_segment(self, segment: SealedSegment) -> None:
        path = self._segment_path(segment.generation)
        write_packed_segment(
            path,
            segment.data.docs,
            segment.data.lists,
            segment.data.any_list,
            generation=segment.generation,
            name=self.collection.name,
        )
        # The WAL is truncated once a seal checkpoint completes, making this
        # file the *only* durable copy of its documents -- so it (and its
        # directory entry) must reach stable storage before that happens.
        _fsync_path(path)
        _fsync_path(path.parent)
        self._persisted_generations.add(segment.generation)
        self._segment_files[segment.generation] = path

    def _write_manifest(self) -> None:
        import json

        manifest = {
            "format": "repro-manifest",
            "version": PACKED_SEGMENT_VERSION,
            "applied_seq": self._durable_seq,
            "next_node_id": self._manager.next_node_id(),
            "segments": [
                {
                    "file": self._segment_files.get(
                        segment.generation,
                        self._segment_path(segment.generation),
                    ).name,
                    "generation": segment.generation,
                    "tombstones": sorted(segment.tombstones.dead_ids()),
                }
                for segment in self._manager.segments
            ],
        }
        path = self.directory / MANIFEST_NAME
        tmp = path.with_suffix(".tmp")
        try:
            payload = json.dumps(manifest, indent=0).encode("utf-8")
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_path(path.parent)  # make the rename itself durable
        except OSError as exc:
            raise StorageError(f"cannot write manifest {path}: {exc}") from exc

    @staticmethod
    def _read_manifest(path: Path) -> dict[str, Any]:
        import json

        try:
            manifest = json.loads(path.read_bytes())
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"cannot read manifest {path}: {exc}") from exc
        if (
            not isinstance(manifest, dict)
            or manifest.get("format") != "repro-manifest"
        ):
            raise StorageError(f"{path} is not a live-index manifest")
        if manifest.get("version") not in (
            SEGMENT_FORMAT_VERSION,
            PACKED_SEGMENT_VERSION,
        ):
            raise StorageError(
                f"{path}: unsupported manifest version {manifest.get('version')}"
            )
        manifest.setdefault("applied_seq", 0)
        manifest.setdefault("next_node_id", 0)
        manifest.setdefault("segments", [])
        return manifest

    def _restore(self, manifest: dict[str, Any]) -> None:
        """Rebuild the in-memory segment state from a manifest's files.

        Packed (v4) files restore zero-copy: their posting columns stay on
        the mmap'd file and only the header is read here.  JSON (v3) files
        are materialised and their posting lists rebuilt, as before.
        """
        segments: list[SealedSegment] = []
        for record in manifest["segments"]:
            path = self.directory / SEGMENT_DIR / record["file"]
            if is_packed_segment(path):
                reader = open_packed_segment(path)
                self._packed_readers.append(reader)
                generation = reader.generation
                data: SegmentData = PackedSegmentData(reader)
            else:
                nodes, generation = load_segment(path)
                data = SegmentData.from_nodes(nodes)
            if generation != record["generation"]:
                raise StorageError(
                    f"segment file {record['file']} claims generation "
                    f"{generation}, manifest says {record['generation']}"
                )
            tombstones = TombstoneSet()
            for node_id in record.get("tombstones", []):
                # Persisted tombstones are all "from the past": stamp them at
                # sequence 0 so every post-restart snapshot sees them applied.
                tombstones.mark(int(node_id), 0)
            segments.append(SealedSegment(generation, data, tombstones))
            self._persisted_generations.add(generation)
            self._segment_files[generation] = path
        self._manager.restore(segments, int(manifest["next_node_id"]) - 1)
        self._durable_seq = int(manifest["applied_seq"])
        # Resume the op clock where the checkpoint left it so replayed WAL
        # records (seq > applied_seq) slot in after it.
        with self._manager.lock:
            self._manager._seq = self._durable_seq

    def _replay_wal(self, applied_seq: int) -> None:
        """Re-apply every durable WAL record newer than the checkpoint."""
        self._replaying = True
        try:
            last_seq = applied_seq
            for record in WriteAheadLog.replay_after(
                self.directory / WAL_NAME, applied_seq
            ):
                self._apply_replay(record)
                last_seq = max(last_seq, int(record.get("seq", 0)))
            with self._manager.lock:
                if self._manager.seq < last_seq:
                    self._manager._seq = last_seq
        finally:
            self._replaying = False

    def _apply_replay(self, record: dict[str, Any]) -> None:
        op = record.get("op")
        manager = self._manager
        if op == "add":
            node = _node_from_dict(record["node"])
            if not manager.is_live(node.node_id):
                manager.add(node)
        elif op == "update":
            node = _node_from_dict(record["node"])
            if manager.is_live(node.node_id):
                manager.update(node)
            else:
                # The pre-update revision was already tombstoned by the
                # checkpoint; re-applying reduces to an insert.
                manager.add(node)
        elif op == "delete":
            manager.delete(int(record["id"]))
        else:
            raise StorageError(f"unknown WAL operation {op!r}")

    def _sync_disk_state(self) -> None:
        """Bring files in line with memory after open (or first build).

        Persists any segment sealed while loading, rewrites the manifest,
        and truncates the WAL only when the memtable is empty (otherwise its
        records are still the only durable copy of the memtable).
        """
        if self.directory is None:
            return
        with self._manager.lock:
            for segment in self._manager.segments:
                if segment.generation not in self._persisted_generations:
                    self._persist_segment(segment)
            self._write_manifest()
            if (
                self._wal is not None
                and self._durable_seq == self._manager.seq
                and not self._manager.memtable
            ):
                self._wal.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LiveIndex(live={self.node_count()}, "
            f"segments={len(self._manager.segments)}, "
            f"memtable={self._manager.memtable.doc_count}, "
            f"seq={self._manager.seq})"
        )
