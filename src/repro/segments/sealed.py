"""Immutable index segments backed by the columnar posting storage.

A :class:`SegmentData` is the frozen columnar view of a set of documents:
one :class:`~repro.index.postings.PostingList` per token plus the segment's
``IL_ANY`` slice, built in one ascending-id pass exactly like
:class:`~repro.index.inverted_index.InvertedIndex` builds its lists.  It is
the payload of a :class:`SealedSegment`; the memtable's read view
(:class:`~repro.segments.memtable.MemTableView`) offers the same surface
but encodes its lists on request.

A :class:`SealedSegment` adds the segment identity (its *generation*, a
monotonically increasing id assigned at seal time) and the segment's
:class:`~repro.segments.tombstones.TombstoneSet`.  The posting data of a
sealed segment never changes; deletes and updates of its nodes only ever
append tombstones, and compaction replaces whole segments.

:class:`PackedSegmentData` is the zero-copy counterpart of
:class:`SegmentData` for segments restored from packed v4 files
(:mod:`repro.index.packed`): its posting lists are ``memoryview`` shells
over the mmap'd file, so restoring a sealed segment does not rebuild any
posting columns.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.corpus.document import ContextNode
from repro.index.inverted_index import ANY_TOKEN
from repro.index.packed import PackedSegmentReader
from repro.index.packed_index import _LazyNodeMap
from repro.index.postings import PostingList
from repro.segments.tombstones import TombstoneSet


class SegmentData:
    """Frozen columnar posting lists over an id-ordered set of documents."""

    __slots__ = ("docs", "lists", "any_list", "_node_ids", "position_count")

    def __init__(self, docs: Mapping[int, ContextNode]) -> None:
        self.docs: dict[int, ContextNode] = dict(docs)
        self._node_ids: list[int] = sorted(self.docs)
        self.lists: dict[str, PostingList] = {}
        self.any_list = PostingList(ANY_TOKEN)
        self.position_count = 0
        for node_id in self._node_ids:
            node = self.docs[node_id]
            all_positions = node.positions()
            if all_positions:
                self.any_list.add_occurrences(node_id, all_positions)
                self.position_count += len(all_positions)
            per_token: dict[str, list] = {}
            for occurrence in node:
                per_token.setdefault(occurrence.token, []).append(occurrence.position)
            for token, positions in per_token.items():
                posting_list = self.lists.get(token)
                if posting_list is None:
                    posting_list = PostingList(token)
                    self.lists[token] = posting_list
                posting_list.add_occurrences(node_id, positions)

    @classmethod
    def from_nodes(cls, nodes: Iterable[ContextNode]) -> "SegmentData":
        return cls({node.node_id: node for node in nodes})

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self.docs)

    def __bool__(self) -> bool:
        return bool(self.docs)

    def node_ids(self) -> list[int]:
        """The segment's node ids, ascending (shared list; do not mutate)."""
        return self._node_ids

    def posting_list(self, token: str) -> PostingList | None:
        """The segment's list for ``token`` (``None`` when absent here)."""
        return self.lists.get(token)

    def documents(self) -> Iterator[ContextNode]:
        """The segment's documents in ascending id order."""
        for node_id in self._node_ids:
            yield self.docs[node_id]

    def memory_breakdown(self) -> dict[str, int]:
        """Columnar byte sizes summed over every list plus ``IL_ANY``."""
        totals = {
            "node_ids_bytes": 0,
            "entry_bounds_bytes": 0,
            "offsets_bytes": 0,
            "structure_bytes": 0,
        }
        for posting_list in list(self.lists.values()) + [self.any_list]:
            for key, value in posting_list.memory_breakdown().items():
                totals[key] += value
        return totals

    def memory_bytes(self) -> int:
        return sum(self.memory_breakdown().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SegmentData(docs={len(self.docs)}, tokens={len(self.lists)})"


class _LazyListMap:
    """A read-only ``{token: PostingList}`` view that builds lists on request.

    The source -- a packed segment reader, a frozen memtable view -- answers
    ``posting_list(token)`` (``None`` when absent) and ``tokens()``.
    """

    __slots__ = ("_source",)

    def __init__(self, source) -> None:
        self._source = source

    def get(self, token: str, default=None):
        found = self._source.posting_list(token)
        return default if found is None else found

    def __getitem__(self, token: str) -> PostingList:
        found = self._source.posting_list(token)
        if found is None:
            raise KeyError(token)
        return found

    def __contains__(self, token: object) -> bool:
        return self._source.posting_list(token) is not None

    def __len__(self) -> int:
        return len(self._source.tokens())

    def __iter__(self) -> Iterator[str]:
        return iter(self._source.tokens())

    def keys(self):
        return list(self._source.tokens())

    def values(self):
        return [self._source.posting_list(token) for token in self._source.tokens()]

    def items(self):
        return [
            (token, self._source.posting_list(token))
            for token in self._source.tokens()
        ]


class PackedSegmentData(SegmentData):
    """Frozen segment data served zero-copy from a packed v4 file.

    Mirrors the :class:`SegmentData` surface the manager and snapshots rely
    on (``docs``/``lists``/``any_list``/``node_ids``/``position_count``),
    but posting lists are mmap-backed
    :class:`~repro.index.packed.PackedPostingList` shells and documents
    decode lazily per node id -- restoring a segment reads only the file
    header.
    """

    __slots__ = ("_reader",)

    def __init__(self, reader: PackedSegmentReader) -> None:
        self._reader = reader
        self.docs = _LazyNodeMap(reader)
        self.lists = _LazyListMap(reader)
        self.any_list = reader.any_list()
        self._node_ids = reader.doc_ids()
        self.position_count = self.any_list.total_positions()

    @property
    def reader(self) -> PackedSegmentReader:
        return self._reader

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PackedSegmentData(docs={len(self.docs)}, tokens={len(self.lists)}, "
            f"path={str(self._reader.path)!r})"
        )


class SealedSegment:
    """An immutable segment: frozen posting data plus its tombstones."""

    __slots__ = ("generation", "data", "tombstones")

    def __init__(
        self,
        generation: int,
        data: SegmentData,
        tombstones: TombstoneSet | None = None,
    ) -> None:
        self.generation = generation
        self.data = data
        self.tombstones = tombstones if tombstones is not None else TombstoneSet()

    @classmethod
    def from_nodes(
        cls, generation: int, nodes: Iterable[ContextNode]
    ) -> "SealedSegment":
        return cls(generation, SegmentData.from_nodes(nodes))

    # ------------------------------------------------------------- accessors
    @property
    def doc_count(self) -> int:
        """Physical documents in the segment (tombstoned ones included)."""
        return len(self.data)

    def live_count(self, as_of: int | None = None) -> int:
        """Documents still visible (optionally as of a snapshot seqno)."""
        return len(self.data) - len(self.tombstones.dead_ids(as_of))

    def survivors(self, as_of: int) -> list[ContextNode]:
        """The documents a snapshot at ``as_of`` can still see, id order."""
        dead = self.tombstones.dead_ids(as_of)
        return [
            self.data.docs[node_id]
            for node_id in self.data.node_ids()
            if node_id not in dead
        ]

    def describe(self, as_of: int | None = None) -> dict[str, int]:
        """Size figures for ``repro segment-stats`` and the benchmarks."""
        return {
            "generation": self.generation,
            "docs": self.doc_count,
            "live_docs": self.live_count(as_of),
            "tombstones": len(self.tombstones.dead_ids(as_of)),
            "tokens": len(self.data.lists),
            "positions": self.data.position_count,
            "memory_bytes": self.data.memory_bytes(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SealedSegment(generation={self.generation}, docs={self.doc_count}, "
            f"tombstones={len(self.tombstones)})"
        )
