"""The segment manager: a log-structured live index core.

State is the classic LSM shape: one mutable :class:`~repro.segments.memtable.MemTable`
in front of a list of immutable :class:`~repro.segments.sealed.SealedSegment`
objects, plus a *location map* ``node_id -> segment generation`` (or the
memtable) for O(1) routing of updates and deletes.

* **Writes** land in the memtable; when it reaches ``flush_threshold``
  documents it is sealed into a new immutable segment.
* **Deletes / updates** of memtable-resident nodes are physical (the
  memtable is a dict); for sealed nodes they append a tombstone stamped
  with the operation sequence number, and an update additionally inserts
  the new revision into the memtable.
* **Reads** go through :meth:`SegmentManager.snapshot`: a snapshot pins the
  segment list, the memtable's frozen read view and the sequence number,
  so one query sees one consistent state for its whole execution no matter
  what writers do meanwhile.
* **Compaction** merges small segments tier-by-tier (sizes are grouped by
  powers of ``compaction_fanout``), physically purging tombstoned postings.
  The expensive columnar rebuild runs outside the write lock; tombstones
  that arrive during the rebuild are carried into the merged segment at
  swap time, so concurrent writers never lose a delete.

The manager is thread-safe: all mutations and snapshot acquisition are
serialised by one re-entrant lock; everything a snapshot hands out is
immutable (or append-only with seqno-gated visibility).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator

from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.exceptions import IndexError_
from repro.index.cursor import (
    CursorFactory,
    InvertedListCursor,
    MultiSegmentCursor,
    PAPER_MODE,
    check_access_mode,
)
from repro.index.inverted_index import ANY_TOKEN
from repro.index.postings import EmptyPostingList, PostingList
from repro.segments.memtable import MemTable
from repro.segments.sealed import SealedSegment, SegmentData
from repro.segments.stats import LiveStatistics
from repro.telemetry import instruments

#: Location-map marker for "currently in the memtable".
MEMTABLE_LOCATION = -1

#: Documents the memtable may hold before it is sealed automatically.
DEFAULT_FLUSH_THRESHOLD = 256

#: Segments per size tier that trigger a tiered merge.
DEFAULT_COMPACTION_FANOUT = 4

#: Shared immutable empty list handed to cursors over absent tokens.
_EMPTY_LIST = EmptyPostingList("")


class _ListSizeView:
    """The tiny slice of the PostingList API cost estimators look at.

    A live snapshot has no single physical list per token -- the logical
    list is spread over segments -- so size questions (``len``, ``df``,
    ``total_positions``) are answered by summing the per-segment lists.
    Counts include tombstoned entries: they are upper bounds used only for
    engine-order heuristics, never for results.
    """

    __slots__ = ("token", "_entries", "_positions")

    def __init__(self, token: str, entries: int, positions: int) -> None:
        self.token = token
        self._entries = entries
        self._positions = positions

    def __len__(self) -> int:
        return self._entries

    def document_frequency(self) -> int:
        return self._entries

    def total_positions(self) -> int:
        return self._positions


class SegmentSnapshot:
    """A consistent, immutable view of a live index for one query.

    Exposes the read surface of :class:`~repro.index.inverted_index.InvertedIndex`
    that the evaluation engines touch (cursors, size views, node ids, the
    collection), backed by the pinned segment list.  Tombstones are applied
    with the snapshot's sequence number, so deletes committed after the
    snapshot stay invisible.

    :attr:`collection` is likewise pinned: it is materialised lazily from
    the snapshot's own segment data (only the COMP engine's full scans and
    content lookups pay for it), so a node the snapshot still matches can be
    read even after a concurrent writer deleted it from the live store --
    snapshot isolation covers content, not just matching.
    """

    __slots__ = (
        "segments",
        "memview",
        "seq",
        "live_count",
        "_name",
        "_collection",
        "_node_ids",
    )

    def __init__(
        self,
        segments: tuple[SealedSegment, ...],
        memview: SegmentData | None,
        seq: int,
        collection: Collection,
        live_count: int,
    ) -> None:
        self.segments = segments
        self.memview = memview
        self.seq = seq
        self.live_count = live_count
        self._name = collection.name
        self._collection: Collection | None = None
        self._node_ids: list[int] | None = None

    @property
    def collection(self) -> Collection:
        """The pinned document store (built once, on first content access)."""
        if self._collection is None:
            self._collection = Collection(
                {node.node_id: node for node in self.documents()}, self._name
            )
        return self._collection

    # ------------------------------------------------------------- cursors
    def _token_parts(self, token: str) -> list[tuple[PostingList, object]]:
        parts: list[tuple[PostingList, object]] = []
        for segment in self.segments:
            posting_list = (
                segment.data.any_list
                if token == ANY_TOKEN
                else segment.data.lists.get(token)
            )
            if posting_list is None or not len(posting_list):
                continue
            parts.append((posting_list, segment.tombstones.filter_at(self.seq)))
        if self.memview is not None:
            posting_list = (
                self.memview.any_list
                if token == ANY_TOKEN
                else self.memview.lists.get(token)
            )
            if posting_list is not None and len(posting_list):
                parts.append((posting_list, None))
        return parts

    def open_cursor(
        self,
        token: str,
        factory: CursorFactory | None = None,
        mode: str = PAPER_MODE,
    ):
        """Open a cursor over the logical (merged, tombstone-filtered) list.

        Single-segment tokens with no tombstones get a plain
        :class:`InvertedListCursor` -- the zero-overhead path a compacted
        index runs on; everything else gets a
        :class:`~repro.index.cursor.MultiSegmentCursor`.
        """
        mode = factory.mode if factory is not None else check_access_mode(mode)
        parts = self._token_parts(token)
        if not parts:
            if factory is not None:
                return factory.open(_EMPTY_LIST, token=token)
            return InvertedListCursor(_EMPTY_LIST, mode=mode, token=token)
        if len(parts) == 1 and parts[0][1] is None:
            posting_list = parts[0][0]
            if factory is not None:
                return factory.open(posting_list, token=token)
            return InvertedListCursor(posting_list, mode=mode, token=token)
        cursor = MultiSegmentCursor(
            [
                (InvertedListCursor(posting_list, mode=mode, token=token), dead)
                for posting_list, dead in parts
            ],
            mode=mode,
            token=token,
        )
        if factory is not None:
            factory.adopt(cursor)
        return cursor

    def open_any_cursor(self, factory: CursorFactory | None = None, mode: str = PAPER_MODE):
        return self.open_cursor(ANY_TOKEN, factory, mode)

    # ---------------------------------------------------- index-facade reads
    def posting_list(self, token: str) -> _ListSizeView:
        """A size view of the logical list (for cost estimation only)."""
        parts = self._token_parts(token)
        return _ListSizeView(
            token,
            sum(len(posting_list) for posting_list, _ in parts),
            sum(posting_list.total_positions() for posting_list, _ in parts),
        )

    def any_list(self) -> _ListSizeView:
        return self.posting_list(ANY_TOKEN)

    def posting_lists(self) -> Iterator[PostingList]:
        """The *physical* per-segment posting lists (tombstones included)."""
        for segment in self.segments:
            yield from segment.data.lists.values()
        if self.memview is not None:
            yield from self.memview.lists.values()

    def max_occurrences(self, token: str) -> int:
        """Largest ``occurs(n, token)`` over the nodes this snapshot sees."""
        return max(
            (
                posting_list.max_positions_per_entry(dead)
                for posting_list, dead in self._token_parts(token)
            ),
            default=0,
        )

    def node_ids(self) -> list[int]:
        """All visible node ids, ascending (computed once per snapshot)."""
        if self._node_ids is None:
            visible: set[int] = set()
            for segment in self.segments:
                dead = segment.tombstones.dead_ids(self.seq)
                if dead:
                    visible.update(
                        node_id
                        for node_id in segment.data.node_ids()
                        if node_id not in dead
                    )
                else:
                    visible.update(segment.data.node_ids())
            if self.memview is not None:
                visible.update(self.memview.node_ids())
            self._node_ids = sorted(visible)
        return list(self._node_ids)

    def node_count(self) -> int:
        return self.live_count

    def documents(self) -> Iterator[ContextNode]:
        """The visible documents in ascending id order (pinned revisions)."""
        by_id: dict[int, ContextNode] = {}
        for segment in self.segments:
            dead = segment.tombstones.dead_ids(self.seq)
            for node_id in segment.data.node_ids():
                if node_id not in dead:
                    by_id[node_id] = segment.data.docs[node_id]
        if self.memview is not None:
            by_id.update(self.memview.docs)
        for node_id in sorted(by_id):
            yield by_id[node_id]

    def segment_count(self) -> int:
        """Pinned sealed segments plus the memtable view (if non-empty)."""
        return len(self.segments) + (1 if self.memview is not None else 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SegmentSnapshot(segments={len(self.segments)}, "
            f"memtable={'yes' if self.memview is not None else 'no'}, "
            f"seq={self.seq}, live={self.live_count})"
        )


class SegmentManager:
    """Memtable + sealed segments + tombstones behind one write interface."""

    def __init__(
        self,
        collection: Collection | None = None,
        *,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        compaction_fanout: int = DEFAULT_COMPACTION_FANOUT,
        on_seal: Callable[[SealedSegment], None] | None = None,
        on_compact: Callable[[SealedSegment, list[SealedSegment]], None] | None = None,
    ) -> None:
        if flush_threshold < 1:
            raise IndexError_(f"flush_threshold must be >= 1, got {flush_threshold}")
        if compaction_fanout < 2:
            raise IndexError_(
                f"compaction_fanout must be >= 2, got {compaction_fanout}"
            )
        self.lock = threading.RLock()
        self.flush_threshold = flush_threshold
        self.compaction_fanout = compaction_fanout
        self.collection = collection if collection is not None else Collection({}, "live")
        #: Writer-side survivor statistics, kept in step with ``collection``
        #: by every mutation below; readers get frozen generations of it.
        self.statistics = LiveStatistics(self.collection)
        self._memtable = MemTable()
        self._segments: list[SealedSegment] = []
        self._by_generation: dict[int, SealedSegment] = {}
        self._locations: dict[int, int] = {}
        self._seq = 0
        self._next_generation = 0
        self._max_assigned_id = -1
        self._on_seal = on_seal
        self._on_compact = on_compact
        self.flush_count = 0
        self.compaction_count = 0
        self._compacting = False
        self._auto_thread: threading.Thread | None = None
        self._auto_stop: threading.Event | None = None
        # What this manager last reported into the shared gauges; deltas
        # against these keep multi-instance (per-shard) sums exact.
        self._memtable_reported = 0
        self._tiers_reported: dict[int, int] = {}
        self._backlog_reported = 0
        if collection is not None and len(collection):
            self._bootstrap(collection)

    # --------------------------------------------------------------- gauges
    def _report_memtable(self) -> None:
        """Move this manager's repro_memtable_docs share to the current count."""
        current = self._memtable.doc_count
        delta = current - self._memtable_reported
        if delta and instruments.REGISTRY.enabled:
            instruments.MEMTABLE_DOCS.inc(delta)
        self._memtable_reported = current

    def _report_tiers(self) -> None:
        """Recompute segments-per-tier and compaction backlog; apply deltas."""
        tiers: dict[int, int] = {}
        for segment in self._segments:
            tier = self._tier_of(segment.live_count())
            tiers[tier] = tiers.get(tier, 0) + 1
        if instruments.REGISTRY.enabled:
            for tier in self._tiers_reported.keys() | tiers.keys():
                delta = tiers.get(tier, 0) - self._tiers_reported.get(tier, 0)
                if delta:
                    instruments.SEGMENTS.labels(str(tier)).inc(delta)
        self._tiers_reported = tiers
        backlog = sum(
            1 for count in tiers.values() if count >= self.compaction_fanout
        )
        delta = backlog - self._backlog_reported
        if delta and instruments.REGISTRY.enabled:
            instruments.COMPACTION_BACKLOG.inc(delta)
        self._backlog_reported = backlog

    # ------------------------------------------------------------ bootstrap
    def _bootstrap(self, collection: Collection) -> None:
        """Seal an initial collection straight into generation-0 segments.

        Bulk loads skip the memtable entirely: the documents are already
        known, so they go directly into one immutable segment per
        ``flush_threshold``-sized... no -- one segment total; the shape a
        freshly-built static index has, which keeps cursor overhead at the
        single-index baseline until live writes arrive.
        """
        nodes = list(collection)
        if not nodes:
            return
        self._next_generation += 1
        segment = SealedSegment.from_nodes(self._next_generation, nodes)
        self._segments.append(segment)
        self._by_generation[segment.generation] = segment
        for node in nodes:
            self._locations[node.node_id] = segment.generation
            self.statistics.apply(None, node)
            if node.node_id > self._max_assigned_id:
                self._max_assigned_id = node.node_id
        self.flush_count += 1
        self._report_tiers()

    def restore(self, segments: list[SealedSegment], max_assigned_id: int) -> None:
        """Adopt segments loaded from disk into an empty manager.

        Used by :class:`~repro.segments.live_index.LiveIndex` when opening a
        persisted index: the segments arrive with their tombstones already
        applied-at-zero, so the location map and collection are rebuilt from
        the still-live entries only.
        """
        with self.lock:
            if self._segments or self._memtable or self._locations:
                raise IndexError_("restore() requires an empty segment manager")
            highest = max_assigned_id
            for segment in segments:
                self._segments.append(segment)
                self._by_generation[segment.generation] = segment
                if segment.generation > self._next_generation:
                    self._next_generation = segment.generation
                dead = segment.tombstones.dead_ids()
                for node_id in segment.data.node_ids():
                    if node_id > highest:
                        highest = node_id
                    if node_id in dead:
                        continue
                    if node_id in self._locations:
                        raise IndexError_(
                            f"node {node_id} is live in two restored segments"
                        )
                    self._locations[node_id] = segment.generation
                    node = segment.data.docs[node_id]
                    self.collection.add(node)
                    self.statistics.apply(None, node)
            self._max_assigned_id = highest
            self._report_tiers()

    # ------------------------------------------------------------ sequencing
    @property
    def seq(self) -> int:
        """The operation sequence number of the last committed mutation.

        Doubles as the *cache generation*: it changes exactly when query
        results may change (adds / updates / deletes), and stays put across
        flushes and compactions -- which only reorganise storage -- so
        result caches keyed on it survive maintenance.
        """
        return self._seq

    def next_node_id(self) -> int:
        """The next never-used node id (monotonic across deletes)."""
        with self.lock:
            return self._max_assigned_id + 1

    def is_live(self, node_id: int) -> bool:
        with self.lock:
            return node_id in self._locations

    def live_count(self) -> int:
        with self.lock:
            return len(self._locations)

    # --------------------------------------------------------------- writes
    def ensure_can_add(self, node: ContextNode) -> None:
        """Raise unless ``node`` can be added (its id is not currently live)."""
        if node.node_id in self._locations:
            raise IndexError_(
                f"node {node.node_id} is already indexed; use update()"
            )

    def add(self, node: ContextNode) -> None:
        """Index a new document (any never-live id; O(1) plus a later seal)."""
        with self.lock:
            self.ensure_can_add(node)
            self._seq += 1
            self._memtable.add(node)
            self._locations[node.node_id] = MEMTABLE_LOCATION
            self.collection.add(node)
            self.statistics.apply(None, node)
            if node.node_id > self._max_assigned_id:
                self._max_assigned_id = node.node_id
            self._report_memtable()
            self._maybe_flush()

    def update(self, node: ContextNode) -> None:
        """Replace the content of a live document (same node id)."""
        with self.lock:
            location = self._locations.get(node.node_id)
            if location is None:
                raise IndexError_(
                    f"cannot update node {node.node_id}: it is not indexed"
                )
            self._seq += 1
            if location == MEMTABLE_LOCATION:
                self._memtable.update(node)
            else:
                self._by_generation[location].tombstones.mark(
                    node.node_id, self._seq
                )
                self._memtable.add(node)
                self._locations[node.node_id] = MEMTABLE_LOCATION
            self.statistics.apply(self.collection.replace(node), node)
            self._report_memtable()
            self._maybe_flush()

    def delete(self, node_id: int) -> bool:
        """Remove a document; returns False when the id is not live."""
        with self.lock:
            location = self._locations.get(node_id)
            if location is None:
                return False
            self._seq += 1
            if location == MEMTABLE_LOCATION:
                self._memtable.delete(node_id)
            else:
                self._by_generation[location].tombstones.mark(node_id, self._seq)
            del self._locations[node_id]
            self.statistics.apply(self.collection.remove(node_id), None)
            self._report_memtable()
            return True

    # --------------------------------------------------------------- sealing
    def _maybe_flush(self) -> None:
        if self._memtable.doc_count >= self.flush_threshold:
            self.flush()

    def flush(self) -> SealedSegment | None:
        """Seal the memtable into a new immutable segment (None if empty)."""
        with self.lock:
            if not self._memtable:
                return None
            self._next_generation += 1
            segment = SealedSegment.from_nodes(
                self._next_generation, self._memtable.documents()
            )
            self._segments.append(segment)
            self._by_generation[segment.generation] = segment
            for node_id in segment.data.node_ids():
                self._locations[node_id] = segment.generation
            self._memtable.clear()
            self.flush_count += 1
            self._report_memtable()
            self._report_tiers()
            if instruments.REGISTRY.enabled:
                instruments.MEMTABLE_SEALS_TOTAL.inc()
            if self._on_seal is not None:
                self._on_seal(segment)
            return segment

    # ------------------------------------------------------------ compaction
    def _tier_of(self, live: int) -> int:
        tier = 0
        size = max(live, 1)
        while size >= self.compaction_fanout:
            size //= self.compaction_fanout
            tier += 1
        return tier

    def _pick_tier(self) -> list[SealedSegment] | None:
        """The segments of the fullest over-populated size tier (or None)."""
        tiers: dict[int, list[SealedSegment]] = {}
        for segment in self._segments:
            tiers.setdefault(self._tier_of(segment.live_count()), []).append(segment)
        candidates = [
            group for group in tiers.values() if len(group) >= self.compaction_fanout
        ]
        if not candidates:
            return None
        group = max(candidates, key=len)
        # Merge the whole tier at once; the result lands in a higher tier.
        return group

    def maybe_compact(self) -> dict[str, int]:
        """Run tiered compaction until no size tier is over-populated.

        At most one compaction (of any kind) runs at a time; a second caller
        returns immediately with zero merges instead of queueing.
        """
        if not self._claim_compaction():
            return {"merges": 0, "segments_merged": 0}
        merged_segments = 0
        merges = 0
        try:
            while True:
                with self.lock:
                    group = self._pick_tier()
                if group is None:
                    break
                self._merge(group)
                merges += 1
                merged_segments += len(group)
        finally:
            self._release_compaction()
        return {"merges": merges, "segments_merged": merged_segments}

    def compact(self) -> dict[str, int]:
        """Merge *all* sealed segments into one, purging every tombstone."""
        if not self._claim_compaction():
            return {"merges": 0, "segments_merged": 0}
        try:
            with self.lock:
                needs_merge = len(self._segments) > 1 or any(
                    len(segment.tombstones.dead_ids(self._seq))
                    for segment in self._segments
                )
                group = list(self._segments) if needs_merge else None
            if group is None:
                return {"merges": 0, "segments_merged": 0}
            self._merge(group)
            return {"merges": 1, "segments_merged": len(group)}
        finally:
            self._release_compaction()

    def _claim_compaction(self) -> bool:
        with self.lock:
            if self._compacting:
                return False
            self._compacting = True
            return True

    def _release_compaction(self) -> None:
        with self.lock:
            self._compacting = False

    def _merge(self, sources: list[SealedSegment]) -> SealedSegment:
        """Merge ``sources`` into one segment; runs the rebuild unlocked.

        Callers must hold the compaction claim (see :meth:`maybe_compact`),
        which guarantees the sources stay in ``self._segments`` -- only
        compaction ever removes segments.
        """
        merge_started = time.perf_counter()
        with self.lock:
            capture_seq = self._seq
            survivors: dict[int, ContextNode] = {}
            for segment in sources:
                for node in segment.survivors(capture_seq):
                    survivors[node.node_id] = node
        # The expensive part -- encoding the columnar arrays -- touches
        # only immutable inputs, so writers keep committing meanwhile.
        data = SegmentData(survivors)
        with self.lock:
            self._next_generation += 1
            merged = SealedSegment(self._next_generation, data)
            # Deletes/updates that landed while we were rebuilding: carry
            # their tombstones onto the merged segment (same seqnos, so
            # snapshot visibility is unchanged).
            for segment in sources:
                for node_id, seq in segment.tombstones.items():
                    if seq > capture_seq and node_id in data.docs:
                        merged.tombstones.mark(node_id, seq)
            source_generations = {segment.generation for segment in sources}
            position = min(
                index
                for index, segment in enumerate(self._segments)
                if segment.generation in source_generations
            )
            self._segments = [
                segment
                for segment in self._segments
                if segment.generation not in source_generations
            ]
            self._segments.insert(position, merged)
            for generation in source_generations:
                del self._by_generation[generation]
            self._by_generation[merged.generation] = merged
            for node_id in data.node_ids():
                if self._locations.get(node_id) in source_generations:
                    self._locations[node_id] = merged.generation
            self.compaction_count += 1
            self._report_tiers()
            if instruments.REGISTRY.enabled:
                instruments.COMPACTIONS_TOTAL.inc()
                instruments.COMPACTION_SECONDS.observe(
                    time.perf_counter() - merge_started
                )
                instruments.COMPACTION_SEGMENTS_MERGED_TOTAL.inc(len(sources))
            if self._on_compact is not None:
                self._on_compact(merged, sources)
            return merged

    # ------------------------------------------------- background compaction
    def start_auto_compaction(self, interval: float = 0.05) -> None:
        """Run :meth:`maybe_compact` periodically on a daemon thread."""
        with self.lock:
            if self._auto_thread is not None:
                return
            self._auto_stop = threading.Event()
            self._auto_thread = threading.Thread(
                target=self._auto_compaction_loop,
                args=(interval,),
                name="repro-compactor",
                daemon=True,
            )
            self._auto_thread.start()

    def _auto_compaction_loop(self, interval: float) -> None:
        stop = self._auto_stop
        while stop is not None and not stop.wait(interval):
            self.maybe_compact()

    def stop_auto_compaction(self) -> None:
        """Stop the background compactor (idempotent; joins the thread)."""
        with self.lock:
            thread, stop = self._auto_thread, self._auto_stop
            self._auto_thread = None
            self._auto_stop = None
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=5.0)

    # --------------------------------------------------------------- reading
    def snapshot(self) -> SegmentSnapshot:
        """A consistent read view: pinned segments + frozen memtable + seqno."""
        with self.lock:
            return SegmentSnapshot(
                segments=tuple(self._segments),
                memview=self._memtable.frozen_view(),
                seq=self._seq,
                collection=self.collection,
                live_count=len(self._locations),
            )

    @property
    def segments(self) -> list[SealedSegment]:
        with self.lock:
            return list(self._segments)

    @property
    def memtable(self) -> MemTable:
        return self._memtable

    def segment_stats(self) -> list[dict[str, int]]:
        """Per-segment size figures, sealed segments first, memtable last."""
        with self.lock:
            rows = [segment.describe(self._seq) for segment in self._segments]
            if self._memtable:
                view = self._memtable.frozen_view()
                rows.append(
                    {
                        "generation": MEMTABLE_LOCATION,
                        "docs": self._memtable.doc_count,
                        "live_docs": self._memtable.doc_count,
                        "tombstones": 0,
                        "tokens": len(view.lists) if view is not None else 0,
                        "positions": self._memtable.position_count,
                        "memory_bytes": view.memory_bytes() if view is not None else 0,
                    }
                )
            return rows

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SegmentManager(segments={len(self._segments)}, "
            f"memtable={self._memtable.doc_count}, live={len(self._locations)}, "
            f"seq={self._seq})"
        )
