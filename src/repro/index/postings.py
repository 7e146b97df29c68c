"""Posting lists: the physical representation of inverted lists.

The paper's data model (Section 5.1.2): for each token ``tok`` there is an
inverted list ``IL_tok`` whose entries are ``(cn, PosList)`` pairs -- a
context node id plus the ordered list of positions of ``tok`` in that node.
Entries are ordered by node id, positions by document order.  There is also
``IL_ANY`` holding *all* positions of every node.

Physically, a :class:`PostingList` is *columnar*: node ids live in one flat
``array``, position offsets (delta-encoded within each entry), sentence and
paragraph ordinals in three parallel flat ``array`` columns, and a boundary
column maps entry index -> slice of the position columns.  This keeps the
per-position cost at a few machine words instead of a Python object, which
is what index build time and memory footprint are dominated by.

:class:`PostingEntry` remains the logical ``(cn, PosList)`` view of one
entry; it is materialised lazily (and transiently) from the columns, so the
object API of the original implementation keeps working.  The per-entry
invariants (sorted node ids, sorted positions, no duplicates, non-empty
position lists) are enforced cheaply during encoding -- a delta that is not
strictly positive is exactly an out-of-order or duplicate position -- and can
be re-checked on demand with :meth:`PostingList.validate`.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from repro.exceptions import IndexError_
from repro.model.positions import Position, fast_position

#: Typecode of the columnar arrays; widened to "Q" on overflow so arbitrarily
#: large node ids / offsets still round-trip (at double the per-value cost).
_NARROW = "I"
_WIDE = "Q"


@dataclass(frozen=True)
class PostingEntry:
    """One ``(cn, PosList)`` entry of an inverted list."""

    node_id: int
    positions: tuple[Position, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise IndexError_(
                f"posting entry for node {self.node_id} has no positions"
            )
        offsets = [pos.offset for pos in self.positions]
        if offsets != sorted(offsets):
            raise IndexError_(
                f"positions of node {self.node_id} must be sorted by offset"
            )
        if len(set(offsets)) != len(offsets):
            raise IndexError_(
                f"positions of node {self.node_id} contain duplicates"
            )

    def __len__(self) -> int:
        return len(self.positions)

    def position_offsets(self) -> list[int]:
        """The raw integer offsets of this entry's positions."""
        return [pos.offset for pos in self.positions]


class PostingList:
    """An ordered sequence of posting entries for one token, stored columnar."""

    __slots__ = (
        "token",
        "_node_ids",
        "_entry_bounds",
        "_offset_deltas",
        "_sentences",
        "_paragraphs",
        "_decoded",
    )

    #: Bound on the decoded-entry cache.  Repeated evaluation (hot lists
    #: read by query after query) hits the same entries repeatedly; caching their decoded position tuples avoids a
    #: decode storm while keeping the materialised-object memory bounded.
    DECODE_CACHE_LIMIT = 1024

    def __init__(self, token: str, entries: Iterable[PostingEntry] = ()) -> None:
        self.token = token
        self._node_ids = array(_NARROW)
        #: ``_entry_bounds[i] .. _entry_bounds[i+1]`` is entry ``i``'s slice of
        #: the position columns; always starts with the sentinel 0.
        self._entry_bounds = array(_NARROW, [0])
        #: First offset of an entry is absolute; the rest are deltas to the
        #: previous offset (strictly positive by the sortedness invariant).
        self._offset_deltas = array(_NARROW)
        self._sentences = array(_NARROW)
        self._paragraphs = array(_NARROW)
        self._decoded: dict[int, tuple[Position, ...]] = {}
        for entry in entries:
            self.append(entry)

    # --------------------------------------------------------------- builder
    def append(self, entry: PostingEntry) -> None:
        """Append an entry; node ids must arrive in strictly increasing order."""
        self.add_occurrences(entry.node_id, entry.positions)

    def add_occurrences(self, node_id: int, positions: Sequence[Position]) -> None:
        """Append an entry from raw positions (the hot build path).

        Positions may be :class:`Position` objects or plain integer offsets.
        The entry invariants are enforced as part of delta encoding: an
        unsorted or duplicate offset shows up as a non-positive delta.
        """
        if not positions:
            raise IndexError_(
                f"posting entry for node {node_id} has no positions"
            )
        node_ids = self._node_ids
        if len(node_ids) and node_id <= node_ids[-1]:
            raise IndexError_(
                f"posting entries for {self.token!r} must have strictly "
                f"increasing node ids (got {node_id} after {node_ids[-1]})"
            )
        start = len(self._offset_deltas)
        previous = -1
        try:
            for pos in positions:
                if isinstance(pos, Position):
                    offset, sentence, paragraph = pos.offset, pos.sentence, pos.paragraph
                else:
                    offset, sentence, paragraph = int(pos), 0, 0
                if offset <= previous:
                    self._rollback(start)
                    if offset == previous:
                        raise IndexError_(
                            f"positions of node {node_id} contain duplicates"
                        )
                    raise IndexError_(
                        f"positions of node {node_id} must be sorted by offset"
                    )
                delta = offset if previous < 0 else offset - previous
                self._push("_offset_deltas", delta)
                self._push("_sentences", sentence)
                self._push("_paragraphs", paragraph)
                previous = offset
            self._push("_node_ids", node_id)
            try:
                self._push("_entry_bounds", len(self._offset_deltas))
            except Exception:
                del self._node_ids[-1:]
                raise
        except IndexError_:
            raise
        except Exception:
            self._rollback(start)
            raise

    def _push(self, name: str, value: int) -> None:
        """Append ``value`` to a column, widening its typecode on overflow."""
        column: array = getattr(self, name)
        try:
            column.append(value)
        except OverflowError:
            if column.typecode != _NARROW or value > 2**64 - 1 or value < 0:
                raise
            widened = array(_WIDE, column)
            widened.append(value)
            setattr(self, name, widened)

    def _rollback(self, start: int) -> None:
        """Discard partially-appended position values after a failed entry."""
        del self._offset_deltas[start:]
        del self._sentences[start:]
        del self._paragraphs[start:]

    # ------------------------------------------------------------- accessors
    def __len__(self) -> int:
        return len(self._node_ids)

    def __iter__(self) -> Iterator[PostingEntry]:
        for index in range(len(self._node_ids)):
            yield self.entry(index)

    def __bool__(self) -> bool:
        return bool(len(self._node_ids))

    def entry(self, index: int) -> PostingEntry:
        """Materialise the logical view of entry ``index`` (lazy object API)."""
        return PostingEntry(self._node_ids[index], self.positions_at(index))

    def entries(self) -> list[PostingEntry]:
        """All entries in node-id order, materialised (compatibility path)."""
        return [self.entry(index) for index in range(len(self._node_ids))]

    def node_ids(self) -> list[int]:
        """The node ids having at least one occurrence of the token."""
        return list(self._node_ids)

    def node_id_column(self):
        """The node-id column as a snapshot view for cursors.

        Values already written never change (appends only; a typecode
        widening copies into a fresh array and leaves this one intact), so a
        cursor that also snapshots the entry count at open time can index
        this array safely for its whole lifetime.
        """
        return self._node_ids

    def decoded_cache(self) -> dict[int, tuple[Position, ...]]:
        """The decoded-entry cache (stable dict identity; see cursor layer)."""
        return self._decoded

    def positions_at(self, index: int) -> tuple[Position, ...]:
        """Decode entry ``index``'s positions (bounded cache, see above).

        Entries are immutable once appended, so cached tuples never go
        stale; the cache is cleared wholesale when it reaches its bound.
        """
        cached = self._decoded.get(index)
        if cached is not None:
            return cached
        lo = self._entry_bounds[index]
        hi = self._entry_bounds[index + 1]
        deltas = self._offset_deltas
        sentences = self._sentences
        paragraphs = self._paragraphs
        offset = 0
        decoded = []
        for flat in range(lo, hi):
            offset += deltas[flat]
            decoded.append(fast_position(offset, sentences[flat], paragraphs[flat]))
        positions = tuple(decoded)
        if len(self._decoded) >= self.DECODE_CACHE_LIMIT:
            # Evict one entry (the most recently inserted) rather than
            # clearing wholesale: repeated sequential passes over a list just
            # above the limit keep almost all of their hits this way.
            self._decoded.popitem()
        self._decoded[index] = positions
        return positions

    def position_offsets_at(self, index: int) -> list[int]:
        """Decode only the integer offsets of entry ``index``."""
        lo = self._entry_bounds[index]
        hi = self._entry_bounds[index + 1]
        deltas = self._offset_deltas
        offset = 0
        decoded = []
        for flat in range(lo, hi):
            offset += deltas[flat]
            decoded.append(offset)
        return decoded

    def entry_for(self, node_id: int) -> PostingEntry | None:
        """The entry of ``node_id`` or ``None`` (random access; testing only).

        Query evaluation never uses this -- the paper restricts inverted
        lists to sequential access -- but tests and scoring setup do.
        """
        idx = bisect.bisect_left(self._node_ids, node_id)
        if idx < len(self._node_ids) and self._node_ids[idx] == node_id:
            return self.entry(idx)
        return None

    def _bisect(self, node_id: int, lo: int, hi: int) -> int:
        """First index in ``[lo, hi)`` whose node id is ``>= node_id``.

        Cursors bind this at open and land every seek with it (see
        :meth:`~repro.index.cursor.InvertedListCursor.seek`).
        """
        return bisect.bisect_left(self._node_ids, node_id, lo, hi)

    def document_frequency(self) -> int:
        """``df(t)``: the number of entries (nodes containing the token)."""
        return len(self._node_ids)

    def total_positions(self) -> int:
        """Total number of positions over all entries (O(1) columnar read)."""
        return len(self._offset_deltas)

    def max_positions_per_entry(
        self, dead: Callable[[int], bool] | None = None
    ) -> int:
        """``pos_per_entry`` restricted to this list.

        ``dead`` (a tombstone filter, see
        :meth:`~repro.segments.tombstones.TombstoneSet.filter_at`) leaves the
        entries of the node ids it accepts out of the maximum.
        """
        bounds = self._entry_bounds
        sizes = map(operator.sub, islice(bounds, 1, None), bounds)
        if dead is not None:
            sizes = (
                size for size, node_id in zip(sizes, self._node_ids) if not dead(node_id)
            )
        return max(sizes, default=0)

    # ----------------------------------------------------- integrity / sizing
    def validate(self) -> None:
        """Re-check the entry invariants over the decoded columns.

        The encoder enforces these on the way in, so a failure here means the
        columns were corrupted after construction (or a storage round-trip
        went wrong).
        """
        node_ids = self._node_ids
        bounds = self._entry_bounds
        if len(bounds) != len(node_ids) + 1 or (len(bounds) and bounds[0] != 0):
            raise IndexError_(
                f"posting list {self.token!r} has inconsistent entry bounds"
            )
        if len(node_ids) and bounds[-1] != len(self._offset_deltas):
            raise IndexError_(
                f"posting list {self.token!r} bounds do not cover the columns"
            )
        previous_node = -1
        for index, node_id in enumerate(node_ids):
            if node_id <= previous_node:
                raise IndexError_(
                    f"posting list {self.token!r} node ids are not strictly "
                    f"increasing at entry {index}"
                )
            previous_node = node_id
            if bounds[index + 1] <= bounds[index]:
                raise IndexError_(
                    f"posting entry for node {node_id} has no positions"
                )
            offsets = self.position_offsets_at(index)
            if any(b <= a for a, b in zip(offsets, offsets[1:])):
                raise IndexError_(
                    f"positions of node {node_id} must be sorted by offset"
                )

    def memory_breakdown(self) -> dict[str, int]:
        """Byte sizes of the columnar arrays (buffer payload only)."""
        return {
            "node_ids_bytes": len(self._node_ids) * self._node_ids.itemsize,
            "entry_bounds_bytes": len(self._entry_bounds) * self._entry_bounds.itemsize,
            "offsets_bytes": len(self._offset_deltas) * self._offset_deltas.itemsize,
            "structure_bytes": (
                len(self._sentences) * self._sentences.itemsize
                + len(self._paragraphs) * self._paragraphs.itemsize
            ),
        }

    def memory_bytes(self) -> int:
        """Total payload bytes of the columnar arrays."""
        return sum(self.memory_breakdown().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PostingList(token={self.token!r}, entries={len(self._node_ids)}, "
            f"positions={self.total_positions()})"
        )


class EmptyPostingList(PostingList):
    """An immutable, shareable empty posting list.

    :meth:`InvertedIndex.posting_list` hands this out for absent tokens so a
    miss does not allocate.  Every mutation path is rejected: one instance is
    shared by *all* absent-token lookups of an index, so a single successful
    append would make every missing token appear to match -- a silent,
    index-wide corruption.  The guard covers :meth:`append` and
    :meth:`add_occurrences` (the only public mutators) and refuses initial
    entries, and the failed attempt provably leaves the instance empty.
    """

    __slots__ = ()

    def append(self, entry: PostingEntry) -> None:
        self._raise_immutable()

    def add_occurrences(self, node_id: int, positions: Sequence[Position]) -> None:
        self._raise_immutable()

    def _raise_immutable(self) -> None:
        raise IndexError_(
            "the shared empty posting list is immutable; build a PostingList "
            "to add entries"
        )
