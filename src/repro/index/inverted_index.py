"""The inverted index: ``IL_tok`` lists for every token plus ``IL_ANY``.

This is the physical storage substrate of all evaluation algorithms in the
paper.  It is built once from a :class:`~repro.corpus.collection.Collection`
and then accessed only through sequential cursors
(:class:`~repro.index.cursor.InvertedListCursor`).

Conceptually, ``IL_tok`` is the physical representation of the algebra
relation ``R_tok`` and ``IL_ANY`` is the physical representation of
``HasPos`` (paper, Section 5.1.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.corpus.collection import Collection
from repro.exceptions import IndexError_
from repro.index.cursor import PAPER_MODE, CursorFactory, InvertedListCursor
from repro.index.postings import EmptyPostingList, PostingEntry, PostingList
from repro.index.statistics import IndexStatistics

#: Reserved token name for the universal inverted list (all positions).
ANY_TOKEN = "*ANY*"

#: Shared immutable empty list handed out for every absent-token lookup, so a
#: miss does not allocate (the cursor layer carries the requested token).
_EMPTY_LIST = EmptyPostingList("")


class InvertedIndex:
    """Inverted lists over a collection of context nodes."""

    #: Moves on every append (:meth:`add_node`) -- exactly when query results
    #: may change; engines re-bind scoring and re-plan when it does.  A
    #: read-only subclass never appends, so it stays 0.
    generation = 0

    def __init__(self, collection: Collection) -> None:
        self.collection = collection
        self._lists: dict[str, PostingList] = {}
        self._any_list = PostingList(ANY_TOKEN)
        self._build()
        self._statistics: IndexStatistics | None = None

    # --------------------------------------------------------------- builder
    def _build(self) -> None:
        builders: dict[str, PostingList] = {}
        for node in self.collection:  # nodes iterate in ascending id order
            all_positions = node.positions()
            if all_positions:
                self._any_list.add_occurrences(node.node_id, all_positions)
            per_token: dict[str, list] = {}
            for occurrence in node:
                per_token.setdefault(occurrence.token, []).append(occurrence.position)
            for token, positions in per_token.items():
                posting_list = builders.get(token)
                if posting_list is None:
                    posting_list = PostingList(token)
                    builders[token] = posting_list
                posting_list.add_occurrences(node.node_id, positions)
        self._lists = builders

    @classmethod
    def from_collection(cls, collection: Collection) -> "InvertedIndex":
        """Build an index (alias of the constructor, for symmetry with storage)."""
        return cls(collection)

    # ---------------------------------------------------- incremental updates
    def add_node(self, node) -> None:
        """Index one additional context node.

        Inverted lists store entries in ascending node-id order, so documents
        can only be *appended*: the new node's id must be larger than every id
        already indexed (use :meth:`next_node_id` to pick one).  Statistics
        are invalidated and recomputed lazily on next access, and
        :attr:`generation` moves.
        """
        existing = self.collection.node_ids()
        if existing and node.node_id <= existing[-1]:
            raise IndexError_(
                f"cannot append node {node.node_id}: ids must be strictly "
                f"increasing (largest existing id is {existing[-1]})"
            )
        self.collection.add(node)
        all_positions = node.positions()
        if all_positions:
            self._any_list.add_occurrences(node.node_id, all_positions)
        per_token: dict[str, list] = {}
        for occurrence in node:
            per_token.setdefault(occurrence.token, []).append(occurrence.position)
        for token, positions in per_token.items():
            posting_list = self._lists.get(token)
            if posting_list is None:
                posting_list = PostingList(token)
                self._lists[token] = posting_list
            posting_list.add_occurrences(node.node_id, positions)
        self._statistics = None
        self.generation += 1

    def add_text(self, text: str, tokenizer=None, metadata=None) -> int:
        """Tokenize ``text``, append it as a new node, and return its id."""
        from repro.corpus.document import ContextNode

        node_id = self.next_node_id()
        node = ContextNode.from_text(node_id, text, tokenizer, metadata=metadata)
        self.add_node(node)
        return node_id

    def next_node_id(self) -> int:
        """The id that :meth:`add_text` would assign to the next document."""
        return self.collection.next_node_id()

    # ------------------------------------------------------------- accessors
    def tokens(self) -> list[str]:
        """Every token that has a non-empty inverted list, sorted."""
        return sorted(self._lists)

    def __contains__(self, token: str) -> bool:
        return token in self._lists

    def posting_list(self, token: str) -> PostingList:
        """``IL_tok`` for ``token``; an empty list if the token never occurs.

        The paper notes that only the finite set of non-empty ``R_token``
        relations is ever materialised; querying an absent token yields a
        shared immutable empty list instead of a fresh allocation per miss.
        """
        existing = self._lists.get(token)
        if existing is not None:
            return existing
        return _EMPTY_LIST

    def any_list(self) -> PostingList:
        """``IL_ANY``: one entry per node with all of its positions."""
        return self._any_list

    def posting_lists(self) -> Iterator[PostingList]:
        """Iterate over every non-empty token inverted list."""
        return iter(self._lists.values())

    def node_count(self) -> int:
        """``cnodes``: the number of context nodes in the search context."""
        return len(self.collection)

    def node_ids(self) -> list[int]:
        """All node ids, ascending."""
        return self.collection.node_ids()

    def document_frequency(self, token: str) -> int:
        """``df(t)`` straight from the posting list."""
        return self.posting_list(token).document_frequency()

    # --------------------------------------------------------------- cursors
    def open_cursor(
        self,
        token: str,
        factory: CursorFactory | None = None,
        mode: str = PAPER_MODE,
    ) -> InvertedListCursor:
        """Open a cursor over ``IL_tok`` (or ``IL_ANY`` for ANY_TOKEN).

        When a factory is given, it fixes the access mode; ``mode`` only
        applies to factory-less cursors.
        """
        posting_list = (
            self._any_list if token == ANY_TOKEN else self.posting_list(token)
        )
        if factory is not None:
            return factory.open(posting_list, token=token)
        return InvertedListCursor(posting_list, mode=mode, token=token)

    def open_any_cursor(
        self, factory: CursorFactory | None = None, mode: str = PAPER_MODE
    ) -> InvertedListCursor:
        """Open a cursor over ``IL_ANY``."""
        return self.open_cursor(ANY_TOKEN, factory, mode)

    # ------------------------------------------------------------ statistics
    @property
    def statistics(self) -> IndexStatistics:
        """Lazily-computed corpus statistics (scoring + complexity parameters)."""
        if self._statistics is None:
            self._statistics = IndexStatistics(self)
        return self._statistics

    # ------------------------------------------------------------ footprint
    def memory_footprint(self) -> dict[str, int]:
        """Estimated byte sizes of the columnar posting storage.

        Reports the payload bytes of the columnar arrays (node ids, entry
        bounds, delta-encoded offsets, sentence/paragraph ordinals) summed
        over every token list plus ``IL_ANY``.  Python object overhead of the
        :class:`PostingList` shells themselves is excluded -- the point of
        the columnar layout is that it no longer grows with the data.
        """
        totals = {
            "node_ids_bytes": 0,
            "entry_bounds_bytes": 0,
            "offsets_bytes": 0,
            "structure_bytes": 0,
        }
        for posting_list in list(self._lists.values()) + [self._any_list]:
            for key, value in posting_list.memory_breakdown().items():
                totals[key] += value
        totals["total_bytes"] = sum(totals.values())
        return totals

    # ----------------------------------------------------- integrity checks
    def validate(self) -> None:
        """Check index invariants against the collection; raise on violation.

        Used by tests and by :mod:`repro.index.storage` after loading an index
        from disk.
        """
        for token, posting_list in self._lists.items():
            posting_list.validate()
            for entry in posting_list:
                node = self.collection.get(entry.node_id)
                for position in entry.positions:
                    if node.token_at(position) != token:
                        raise IndexError_(
                            f"index corrupt: node {entry.node_id} position "
                            f"{position.offset} does not hold token {token!r}"
                        )
        self._any_list.validate()
        any_nodes = self._any_list.node_ids()
        expected = [nid for nid in self.collection.node_ids()
                    if len(self.collection.get(nid)) > 0]
        if any_nodes != expected:
            raise IndexError_("IL_ANY does not cover exactly the non-empty nodes")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"InvertedIndex(nodes={self.node_count()}, "
            f"tokens={len(self._lists)})"
        )


def build_index(collection: Collection) -> InvertedIndex:
    """Convenience function: build an :class:`InvertedIndex` for a collection."""
    return InvertedIndex(collection)


def merge_node_ids(lists: Iterable[PostingList]) -> list[int]:
    """Union of node ids over several posting lists (sorted).

    A small utility used by tests and by the BOOL engine's OR handling.
    """
    result: set[int] = set()
    for posting_list in lists:
        result.update(posting_list.node_ids())
    return sorted(result)
