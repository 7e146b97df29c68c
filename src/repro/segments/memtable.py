"""The memtable: the small mutable head of a live index.

All writes land here first.  Documents are kept as plain
:class:`~repro.corpus.document.ContextNode` objects in a dict, so add,
update and delete are O(1) dictionary operations.  What queries read is a
:class:`MemTableView` handed out by :meth:`MemTable.frozen_view` and cached
until the next mutation.

A view freezes the document map -- one pointer copy per memtable document,
the only work a write leaves for the next read -- and encodes a token's
columnar :class:`~repro.index.postings.PostingList` the first time a query
asks for that token, from the per-token position map every
:class:`~repro.corpus.document.ContextNode` caches (the on-demand list map
packed segments use, :class:`~repro.segments.sealed._LazyListMap`).  A read
after a write therefore costs memtable documents x query tokens, not
memtable documents x their whole vocabulary.

That is also what gives the live index snapshot isolation for free: a query
snapshot captures the current view *object*, whose documents never change;
later mutations replace the cached view rather than touching it, so
in-flight queries keep reading the state they started with.

Sealing (at ``flush_threshold`` documents, by the segment manager) is the
one place the memtable's whole vocabulary is encoded: once, eagerly, into
the :class:`~repro.segments.sealed.SegmentData` of the new immutable
:class:`~repro.segments.sealed.SealedSegment`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.corpus.document import ContextNode
from repro.exceptions import IndexError_
from repro.index.inverted_index import ANY_TOKEN
from repro.index.postings import PostingList
from repro.segments.sealed import SegmentData, _LazyListMap


class MemTableView(SegmentData):
    """Frozen memtable documents; posting lists are encoded on first request.

    Mirrors the :class:`SegmentData` surface snapshots rely on.  Iterating
    ``lists`` yields the tokens and lists of an eager ``SegmentData`` over
    the same documents, in the same order.  Concurrent readers may encode the
    same list twice; each publishes a complete list with one atomic store.
    """

    __slots__ = ("_built", "_tokens", "_any_list")

    def __init__(self, docs: Mapping[int, ContextNode], position_count: int) -> None:
        self.docs = dict(docs)
        self._node_ids = sorted(self.docs)
        self.position_count = position_count
        self._built: dict[str, PostingList | None] = {}
        self._tokens: list[str] | None = None
        self._any_list: PostingList | None = None

    @property
    def lists(self) -> _LazyListMap:
        return _LazyListMap(self)

    def tokens(self) -> list[str]:
        """The view's vocabulary in first-occurrence order (as built eagerly)."""
        if self._tokens is None:
            self._tokens = list(
                dict.fromkeys(
                    occurrence.token
                    for node_id in self._node_ids
                    for occurrence in self.docs[node_id]
                )
            )
        return self._tokens

    def _encode(self, token: str, positions_in) -> PostingList:
        posting_list = PostingList(token)
        for node_id in self._node_ids:
            positions = positions_in(self.docs[node_id])
            if positions:
                posting_list.add_occurrences(node_id, positions)
        return posting_list

    def posting_list(self, token: str) -> PostingList | None:
        try:
            return self._built[token]
        except KeyError:
            found = self._encode(token, lambda node: node.positions_of(token)) or None
            self._built[token] = found
            return found

    @property
    def any_list(self) -> PostingList:
        if self._any_list is None:
            self._any_list = self._encode(ANY_TOKEN, ContextNode.positions)
        return self._any_list


class MemTable:
    """A mutable in-memory index accepting adds, updates and deletes."""

    __slots__ = ("_docs", "_positions", "_view")

    def __init__(self) -> None:
        self._docs: dict[int, ContextNode] = {}
        self._positions = 0
        self._view: MemTableView | None = None

    # --------------------------------------------------------------- writes
    def add(self, node: ContextNode) -> None:
        """Insert a new document; its id must not already be present."""
        if node.node_id in self._docs:
            raise IndexError_(
                f"memtable already holds node {node.node_id}; use update()"
            )
        self._docs[node.node_id] = node
        self._positions += len(node)
        self._view = None

    def update(self, node: ContextNode) -> ContextNode:
        """Replace the revision of an existing document; return the old one."""
        old = self._docs.get(node.node_id)
        if old is None:
            raise IndexError_(f"memtable does not hold node {node.node_id}")
        self._docs[node.node_id] = node
        self._positions += len(node) - len(old)
        self._view = None
        return old

    def delete(self, node_id: int) -> ContextNode:
        """Remove a document; return the removed revision."""
        old = self._docs.pop(node_id, None)
        if old is None:
            raise IndexError_(f"memtable does not hold node {node_id}")
        self._positions -= len(old)
        self._view = None
        return old

    def clear(self) -> None:
        """Empty the memtable (after its content was sealed elsewhere)."""
        self._docs = {}
        self._positions = 0
        self._view = None

    # --------------------------------------------------------------- reads
    def __len__(self) -> int:
        return len(self._docs)

    def __bool__(self) -> bool:
        return bool(self._docs)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._docs

    def get(self, node_id: int) -> ContextNode | None:
        return self._docs.get(node_id)

    def documents(self) -> Iterator[ContextNode]:
        """Documents in ascending id order (snapshot of the current state)."""
        for node_id in sorted(self._docs):
            yield self._docs[node_id]

    @property
    def doc_count(self) -> int:
        return len(self._docs)

    @property
    def position_count(self) -> int:
        """Total token positions held (the flush threshold's size measure)."""
        return self._positions

    def frozen_view(self) -> MemTableView | None:
        """The current content as an immutable read view (cached).

        Returns ``None`` for an empty memtable.  The documents of the
        returned object never change afterwards -- a later write builds a
        *new* view -- so query snapshots may hold it for their whole
        execution.
        """
        if not self._docs:
            return None
        if self._view is None:
            self._view = MemTableView(self._docs, self._positions)
        return self._view

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MemTable(docs={len(self._docs)}, positions={self._positions})"
