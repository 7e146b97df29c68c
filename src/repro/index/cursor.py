"""Sequential and seek-capable cursors over inverted lists.

The paper restricts access to inverted lists to *sequential scans* through a
cursor API (Section 5.1.2):

* ``nextEntry()``   -- advance to the next entry and return its node id
  (``None`` when exhausted);
* ``getPositions()`` -- the position list of the current entry.

Both operations are O(1).  All evaluation engines in :mod:`repro.engine` read
inverted lists exclusively through this API, so the number of cursor
operations is a faithful proxy for the paper's complexity parameters.

On top of the sequential API the cursor offers :meth:`InvertedListCursor.seek`
(binary search over the columnar node-id array) and three fused calls for the
evaluation hot loops -- ``drain()``, ``next_positions()`` and
``seek_positions(target)`` -- each charged exactly as the paper-API sequence
it replaces.  How a seek is *charged* is governed by the cursor's access mode:

* ``"paper"`` (default) -- the physical skip still happens, but the cursor is
  charged one ``next_entry`` per entry it moved over, exactly as if it had
  walked sequentially.  Counter streams are byte-identical to the original
  sequential implementation, which is what the Figure 3--8 cost-accounting
  benchmarks rely on.
* ``"fast"`` -- the production path: a seek is charged as one ``seek`` plus
  its O(log n) search probes, and nothing is added to the sequential
  counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import EvaluationError
from repro.index.postings import PostingList
from repro.model.positions import Position

#: Charge seeks as sequential per-entry scans (the paper's cost model).
PAPER_MODE = "paper"
#: Charge seeks as O(log n) searches (the production path).
FAST_MODE = "fast"
#: The valid access modes, in documentation order.
ACCESS_MODES = (PAPER_MODE, FAST_MODE)


def check_access_mode(mode: str) -> str:
    """Validate an access-mode name and return it."""
    if mode not in ACCESS_MODES:
        raise EvaluationError(
            f"unknown access mode {mode!r}; expected one of {ACCESS_MODES}"
        )
    return mode


@dataclass(slots=True)
class CursorStats:
    """Operation counters of a cursor (or aggregated over many cursors).

    ``next_entry_calls`` / ``get_positions_calls`` / ``positions_returned``
    are the paper's sequential-access charges.  ``seek_calls`` and
    ``seek_probes`` are only incremented by fast-mode seeks; in paper mode
    they stay zero, so paper-mode reports are unchanged from the original
    implementation.
    """

    next_entry_calls: int = 0
    get_positions_calls: int = 0
    positions_returned: int = 0
    seek_calls: int = 0
    seek_probes: int = 0

    def merge(self, other: "CursorStats") -> None:
        """Accumulate another counter set into this one."""
        self.next_entry_calls += other.next_entry_calls
        self.get_positions_calls += other.get_positions_calls
        self.positions_returned += other.positions_returned
        self.seek_calls += other.seek_calls
        self.seek_probes += other.seek_probes

    def as_dict(self) -> dict[str, int]:
        """The paper's sequential counters (stable across access modes)."""
        return {
            "next_entry_calls": self.next_entry_calls,
            "get_positions_calls": self.get_positions_calls,
            "positions_returned": self.positions_returned,
        }

    def as_extended_dict(self) -> dict[str, int]:
        """All counters, including the fast-mode seek charges."""
        extended = self.as_dict()
        extended["seek_calls"] = self.seek_calls
        extended["seek_probes"] = self.seek_probes
        return extended

    def delta_since(self, snapshot: "CursorStats") -> "CursorStats":
        """The counters accumulated since ``snapshot`` was taken."""
        return CursorStats(
            self.next_entry_calls - snapshot.next_entry_calls,
            self.get_positions_calls - snapshot.get_positions_calls,
            self.positions_returned - snapshot.positions_returned,
            self.seek_calls - snapshot.seek_calls,
            self.seek_probes - snapshot.seek_probes,
        )

    def copy(self) -> "CursorStats":
        """An independent snapshot of the current counters."""
        return CursorStats(
            self.next_entry_calls,
            self.get_positions_calls,
            self.positions_returned,
            self.seek_calls,
            self.seek_probes,
        )


class InvertedListCursor:
    """A forward-only cursor over a :class:`PostingList`.

    The cursor starts *before* the first entry: the first ``next_entry()``
    call moves to the first entry.  ``get_positions()`` may only be called
    when the cursor is on an entry.  :meth:`seek` never moves backwards.
    """

    __slots__ = (
        "_list",
        "_node_ids",
        "_decoded",
        "_length",
        "_index",
        "stats",
        "token",
        "mode",
    )

    def __init__(
        self,
        posting_list: PostingList,
        mode: str = PAPER_MODE,
        token: str | None = None,
    ) -> None:
        self.token = posting_list.token if token is None else token
        self.mode = check_access_mode(mode)
        self._list = posting_list
        # Snapshot views of the columns (paired with the snapshot length, so
        # later appends/widenings of the list never affect this cursor).
        self._node_ids = posting_list.node_id_column()
        self._decoded = posting_list.decoded_cache()
        self._length = len(posting_list)
        self._index = -1
        self.stats = CursorStats()

    # ----------------------------------------------------------- paper API
    def next_entry(self) -> int | None:
        """Advance to the next entry; return its node id or ``None`` at the end."""
        self.stats.next_entry_calls += 1
        self._index += 1
        if self._index >= self._length:
            self._index = self._length
            return None
        return self._node_ids[self._index]

    def get_positions(self) -> list[Position]:
        """Positions of the current entry (requires a prior successful next_entry)."""
        index = self._index
        if not 0 <= index < self._length:
            raise RuntimeError(
                "get_positions() called while the cursor is not on an entry"
            )
        return list(self._take_positions(index))

    # ---------------------------------------------------------- fused calls
    # Each returns what the equivalent paper-API sequence returns and charges
    # exactly what it charges; positions come back as the decoded cache's
    # immutable tuple instead of a list copy.
    def drain(self) -> list[int]:
        """The remaining node ids; charged as ``next_entry`` until ``None``."""
        start = self._index + 1
        length = self._length
        self.stats.next_entry_calls += max(length - start, 0) + 1
        self._index = length
        return self._node_ids[start:length].tolist()

    def next_positions(self) -> tuple[int | None, tuple[Position, ...]]:
        """``next_entry()`` then ``get_positions()``: ``(node, positions)``,
        or ``(None, ())`` at the end."""
        self.stats.next_entry_calls += 1
        index = self._index + 1
        if index >= self._length:
            self._index = self._length
            return None, ()
        self._index = index
        return self._node_ids[index], self._take_positions(index)

    def seek_positions(self, node_id: int) -> tuple[int | None, tuple[Position, ...]]:
        """``seek(node_id)`` then ``get_positions()``: ``(node, positions)``,
        or ``(None, ())`` -- uncharged when the cursor is already exhausted."""
        if self._index >= self._length:
            return None, ()
        index = self._seek_to(node_id)
        if index >= self._length:
            return None, ()
        return self._node_ids[index], self._take_positions(index)

    def _take_positions(self, index: int) -> tuple[Position, ...]:
        """Entry ``index``'s decoded positions, charged as one ``get_positions``."""
        positions = self._decoded.get(index)
        if positions is None:
            positions = self._list.positions_at(index)
        stats = self.stats
        stats.get_positions_calls += 1
        stats.positions_returned += len(positions)
        return positions

    # -------------------------------------------------------- conveniences
    def current_node(self) -> int | None:
        """Node id of the current entry, or ``None`` before the start / at the end."""
        if 0 <= self._index < self._length:
            return self._node_ids[self._index]
        return None

    def exhausted(self) -> bool:
        """True once ``next_entry()`` has returned ``None``."""
        return self._index >= self._length

    def entry_count(self) -> int:
        """Total entries of the underlying list (used for rarest-first order)."""
        return self._length

    def seek(self, node_id: int) -> int | None:
        """Move forward to the first entry with node id ``>= node_id``.

        Returns the landing node id, or ``None`` when the list is exhausted.
        The physical movement is a binary search over the node-id column in
        both modes; only the *charging* differs (see the module docstring).
        """
        index = self._seek_to(node_id)
        return self._node_ids[index] if index < self._length else None

    def _seek_to(self, node_id: int) -> int:
        """Move as :meth:`seek` does, charging by mode; return the new index."""
        index = self._index
        if 0 <= index < self._length and self._node_ids[index] >= node_id:
            return index
        landing, probes = self._list.seek_index(max(index, 0), node_id, self._length)
        if self.mode == FAST_MODE:
            self.stats.seek_calls += 1
            self.stats.seek_probes += probes
        else:
            # Sequential charging: one next_entry per entry moved over, with
            # a minimum of one call (an exhausted cursor still pays for the
            # call that discovers there is nothing left).
            self.stats.next_entry_calls += max(landing - index, 1)
        self._index = landing
        return landing

    def advance_to(self, node_id: int) -> int | None:
        """Advance until the current node id is ``>= node_id``; return it, or
        ``None`` if the list is exhausted.

        This is the merge-style skip primitive.  In paper mode it is charged
        per entry skipped (identical to repeated ``next_entry`` calls); in
        fast mode it delegates to the O(log n) :meth:`seek` charge.
        """
        return self.seek(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"InvertedListCursor(token={self.token!r}, mode={self.mode!r}, "
            f"index={self._index}/{self._length})"
        )


class MultiSegmentCursor:
    """One logical cursor over the same token's list in several segments.

    The live-indexing layer (:mod:`repro.segments`) stores an index as a
    sequence of immutable segments plus a mutable memtable; a token's logical
    inverted list is the k-way merge of its per-segment lists with tombstoned
    entries removed.  This cursor presents that merge through the exact
    sequential-cursor API of :class:`InvertedListCursor`, so every evaluation
    engine works unchanged on a live index.

    ``parts`` is a sequence of ``(cursor, dead)`` pairs, one per segment, in
    any order: ``cursor`` is a plain :class:`InvertedListCursor` over that
    segment's list and ``dead`` is ``None`` or a predicate ``node_id -> bool``
    marking entries tombstoned *as of the snapshot* this cursor belongs to.
    Visible node ids are unique across segments (at most one live revision of
    a node exists), so the merge is a disjoint union.

    Accounting: all child cursors share this cursor's :class:`CursorStats`
    object, so every per-segment ``next_entry`` / ``get_positions`` / seek
    charge (including entries skipped over tombstones) is counted once, here.
    More segments therefore mean measurably more cursor work for the same
    query -- which is exactly the overhead background compaction removes.
    """

    __slots__ = (
        "token",
        "mode",
        "stats",
        "_parts",
        "_currents",
        "_primed",
        "_on_entry",
        "_current",
        "_current_part",
        "_done",
    )

    def __init__(self, parts, mode: str = PAPER_MODE, token: str | None = None) -> None:
        self.mode = check_access_mode(mode)
        self.token = token
        self.stats = CursorStats()
        self._parts = list(parts)
        for cursor, _ in self._parts:
            if token is None:
                self.token = cursor.token
            cursor.stats = self.stats
        #: Node id each part is currently on (None = exhausted); filled lazily
        #: on first access so an unread cursor charges nothing.
        self._currents: list[int | None] = [None] * len(self._parts)
        self._primed = False
        self._on_entry = False
        self._current: int | None = None
        self._current_part = -1
        self._done = False

    # ------------------------------------------------------------- internals
    def _advance_part(self, index: int) -> int | None:
        """Move part ``index`` to its next *visible* entry; return its id."""
        cursor, dead = self._parts[index]
        while True:
            node = cursor.next_entry()
            if node is None:
                return None
            if dead is None or not dead(node):
                return node

    def _prime(self) -> None:
        if self._primed:
            return
        self._primed = True
        for index in range(len(self._parts)):
            self._currents[index] = self._advance_part(index)

    def _settle(self) -> int | None:
        """Pick the smallest current id over all parts (None = exhausted)."""
        best: int | None = None
        best_part = -1
        for index, current in enumerate(self._currents):
            if current is not None and (best is None or current < best):
                best = current
                best_part = index
        self._current = best
        self._current_part = best_part
        if best is None:
            self._done = True
            self._on_entry = False
        else:
            self._on_entry = True
        return best

    # ----------------------------------------------------------- paper API
    def next_entry(self) -> int | None:
        """Advance to the next visible entry; return its id or ``None``."""
        charged_before = self.stats.next_entry_calls
        if not self._primed:
            self._prime()
        elif self._on_entry:
            # Advance every part sitting on the current id (normally exactly
            # one -- visible ids are unique across segments -- but duplicates
            # are merged defensively rather than emitted twice).
            current = self._current
            for index, value in enumerate(self._currents):
                if value == current:
                    self._currents[index] = self._advance_part(index)
        if self.stats.next_entry_calls == charged_before:
            # Every part was already exhausted: still pay for the call that
            # discovers there is nothing left (the sequential convention).
            self.stats.next_entry_calls += 1
        return self._settle()

    def get_positions(self) -> list[Position]:
        """Positions of the current entry (from the segment that holds it)."""
        if not self._on_entry:
            raise RuntimeError(
                "get_positions() called while the cursor is not on an entry"
            )
        return self._parts[self._current_part][0].get_positions()

    # ---------------------------------------------------------- fused calls
    # Compositions of the paper API above, so they charge what it charges.
    def drain(self) -> list[int]:
        """The remaining visible node ids (see :meth:`InvertedListCursor.drain`)."""
        nodes: list[int] = []
        node = self.next_entry()
        while node is not None:
            nodes.append(node)
            node = self.next_entry()
        return nodes

    def next_positions(self) -> tuple[int | None, tuple[Position, ...]]:
        """``next_entry()`` then the current entry's positions."""
        node = self.next_entry()
        if node is None:
            return None, ()
        return node, tuple(self.get_positions())

    def seek_positions(self, node_id: int) -> tuple[int | None, tuple[Position, ...]]:
        """``seek(node_id)`` then the landing entry's positions; uncharged
        when the cursor is already exhausted."""
        if self._done:
            return None, ()
        node = self.seek(node_id)
        if node is None:
            return None, ()
        return node, tuple(self.get_positions())

    # -------------------------------------------------------- conveniences
    def current_node(self) -> int | None:
        return self._current if self._on_entry else None

    def exhausted(self) -> bool:
        return self._done

    def entry_count(self) -> int:
        """Total entries over all segment lists (tombstones included).

        An upper bound on the visible length; used only for rarest-first
        ordering heuristics, exactly like the single-list count.
        """
        return sum(cursor.entry_count() for cursor, _ in self._parts)

    def seek(self, node_id: int) -> int | None:
        """Move forward to the first visible entry with id ``>= node_id``."""
        if self._on_entry and self._current is not None and self._current >= node_id:
            return self._current
        charged_before = self.stats.next_entry_calls + self.stats.seek_calls
        if not self._primed:
            self._prime()
        for index, current in enumerate(self._currents):
            if current is None or current >= node_id:
                continue
            cursor, dead = self._parts[index]
            landing = cursor.seek(node_id)
            while landing is not None and dead is not None and dead(landing):
                landing = self._advance_part(index)
            self._currents[index] = landing
        if (self.stats.next_entry_calls + self.stats.seek_calls) == charged_before:
            if self.mode == FAST_MODE:
                self.stats.seek_calls += 1
            else:
                self.stats.next_entry_calls += 1
        return self._settle()

    def advance_to(self, node_id: int) -> int | None:
        """Merge-style skip primitive (alias of :meth:`seek`)."""
        return self.seek(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MultiSegmentCursor(token={self.token!r}, mode={self.mode!r}, "
            f"parts={len(self._parts)}, current={self._current})"
        )


@dataclass
class CursorFactory:
    """Creates cursors for an index and aggregates their statistics.

    Evaluation engines obtain every cursor through a factory so that the
    total amount of inverted-list I/O per query can be reported, mirroring
    the paper's complexity parameters.  The factory fixes the access mode of
    every cursor it opens, so one engine run is uniformly ``"paper"`` or
    ``"fast"``.
    """

    mode: str = PAPER_MODE
    aggregate: CursorStats = field(default_factory=CursorStats)
    _open_cursors: list[InvertedListCursor] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_access_mode(self.mode)

    def open(
        self, posting_list: PostingList, token: str | None = None
    ) -> InvertedListCursor:
        cursor = InvertedListCursor(posting_list, mode=self.mode, token=token)
        self._open_cursors.append(cursor)
        return cursor

    def adopt(self, cursor) -> "MultiSegmentCursor | InvertedListCursor":
        """Register an externally-built cursor (e.g. a multi-segment merge).

        The live-index snapshot layer builds :class:`MultiSegmentCursor`
        objects itself (they wrap several per-segment lists, not one posting
        list) and adopts them here so their charges appear in the factory's
        aggregate exactly like directly-opened cursors.
        """
        self._open_cursors.append(cursor)
        return cursor

    def collect_stats(self) -> CursorStats:
        """Aggregate statistics over every cursor opened through this factory."""
        total = CursorStats()
        total.merge(self.aggregate)
        for cursor in self._open_cursors:
            total.merge(cursor.stats)
        return total

    def checkpoint(self) -> CursorStats:
        """Fold finished cursors into the aggregate and return the totals.

        Batch drivers call this between queries so the per-query stats delta
        stays O(cursors opened by that query) instead of walking every cursor
        the factory ever opened.  The folded cursors must not be used again.
        """
        for cursor in self._open_cursors:
            self.aggregate.merge(cursor.stats)
        self._open_cursors.clear()
        return self.aggregate.copy()
