"""Tombstones: logical deletes over immutable segments.

A sealed segment can never be rewritten, so deleting (or updating) a node
whose postings live in one is recorded *beside* the segment as a tombstone.
Readers filter tombstoned entries out at cursor-merge time; compaction later
rewrites the segment without them (purging the tombstones physically).

Every tombstone carries the monotonic **operation sequence number** at which
it was created.  A query snapshot remembers the sequence number current when
it was taken and considers a node dead only if its tombstone is at or below
that number -- which is what makes deletes invisible to queries already in
flight (snapshot isolation) without copying any per-query state.
"""

from __future__ import annotations

from typing import Callable, Iterator


class TombstoneSet:
    """Node ids deleted from one segment, each stamped with its op seqno.

    The set only ever grows (a tombstoned node stays tombstoned for the
    segment's whole lifetime; compaction replaces the segment instead of
    shrinking the set), which is what makes the lock-free snapshot filters
    handed to cursors safe under concurrent writers.
    """

    __slots__ = ("_dead",)

    def __init__(self) -> None:
        self._dead: dict[int, int] = {}

    def mark(self, node_id: int, seq: int) -> None:
        """Record ``node_id`` as deleted by operation ``seq``.

        Re-marking an already-dead node keeps the *earliest* sequence number:
        the node has been invisible since then, and moving the stamp forward
        could resurrect it for intermediate snapshots.
        """
        existing = self._dead.get(node_id)
        if existing is None or seq < existing:
            self._dead[node_id] = seq

    def seq_of(self, node_id: int) -> int | None:
        """The sequence number that tombstoned ``node_id`` (None if alive)."""
        return self._dead.get(node_id)

    def is_dead(self, node_id: int, as_of: int) -> bool:
        """Whether ``node_id`` is dead for a snapshot taken at seqno ``as_of``."""
        seq = self._dead.get(node_id)
        return seq is not None and seq <= as_of

    def filter_at(self, as_of: int) -> Callable[[int], bool] | None:
        """A cursor-level visibility predicate for a snapshot at ``as_of``.

        Returns ``None`` when the set is empty so the cursor layer can take
        its zero-overhead single-list fast path.
        """
        if not self._dead:
            return None
        dead = self._dead
        return lambda node_id: (seq := dead.get(node_id)) is not None and seq <= as_of

    def dead_ids(self, as_of: int | None = None) -> set[int]:
        """All dead node ids (restricted to a snapshot when ``as_of`` given)."""
        if as_of is None:
            return set(self._dead)
        # Snapshot readers call this without the write lock: iterate over an
        # atomic copy, or a concurrent mark() aborts the loop ("dictionary
        # changed size during iteration").
        return {node_id for node_id, seq in list(self._dead.items()) if seq <= as_of}

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._dead.items())

    def __len__(self) -> int:
        return len(self._dead)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._dead

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TombstoneSet(dead={len(self._dead)})"
