"""Pipelined plan operators over inverted-list cursors (PPRED, Algorithms 1–5).

The PPRED evaluation strategy (paper, Section 5.5.3) evaluates an operator
tree without materialising intermediate relations.  Every operator iterates
*context nodes*:

* ``advance_node()``      -- move to the next node with at least one result
  and return its id, or ``None`` at the end;
* ``current_node()``      -- the node the operator is currently on;
* ``advance_node_to(t)``  -- skip to the first result node ``>= t``.

The operators implemented here are the scan (over one inverted list), the
CNode sort-merge join and its n-ary zig-zag form, the conjunctive *block*
(selection by predicates and projection to CNode, Algorithms 2–3, fused into
one per-node loop that also runs NPRED's cursor orderings, Section 5.6), and
the node-level union / difference used for ``OR`` and ``AND NOT`` of closed
subqueries.  Only :class:`ScanOperator` exposes positions; the block reads
them from its scans directly, and everything above a block is node-level.

Positions advance with ``min_offset`` (move to *at least* this offset)
rather than the paper's strict ``> pos`` convention; the two are
interchangeable (``> pos`` ≡ ``>= pos + 1``) and the inclusive form composes
directly with the predicates' advance hints.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from repro.exceptions import EvaluationError
from repro.index.cursor import FAST_MODE, InvertedListCursor
from repro.model.positions import Position
from repro.model.predicates import Polarity, Predicate


class PlanOperator:
    """Base class of pipelined plan operators."""

    def advance_node(self) -> int | None:
        raise NotImplementedError

    def current_node(self) -> int | None:
        raise NotImplementedError

    def advance_node_to(self, target: int) -> int | None:
        """Advance until the current node id is ``>= target``; return it.

        The default implementation steps :meth:`advance_node` repeatedly --
        the paper's sequential cost model.  Operators backed by seek-capable
        cursors override this to skip in O(log n) when the cursor is in fast
        access mode.
        """
        node = self.current_node()
        if node is not None and node >= target:
            return node
        while True:
            node = self.advance_node()
            if node is None or node >= target:
                return node


class ScanOperator(PlanOperator):
    """Sequential scan over one token inverted list (one position attribute)."""

    def __init__(self, cursor: InvertedListCursor) -> None:
        self._cursor = cursor
        #: Fast-mode cursors skip by seeking; paper-mode ones step entry by
        #: entry so every skipped entry is charged as the paper's cost model
        #: requires.  Fixed for the cursor's lifetime, so decided once.
        self._seeks = cursor.mode == FAST_MODE
        self._node: int | None = None
        self._positions: tuple[Position, ...] = ()
        self._pointer = 0

    def advance_node(self) -> int | None:
        self._node, self._positions = self._cursor.next_positions()
        self._pointer = 0
        return self._node

    def current_node(self) -> int | None:
        return self._node

    def advance_node_to(self, target: int) -> int | None:
        """Skip to the first entry with node id ``>= target``.

        With a fast-mode cursor this is one seek plus a single position
        fetch at the landing entry; skipped entries never have their
        positions materialised.  With a paper-mode cursor it steps
        sequentially, so the per-entry cost accounting of the original
        implementation is preserved exactly.
        """
        node = self._node
        if node is not None and node >= target:
            return node
        if self._seeks:
            node, positions = self._cursor.seek_positions(target)
        else:
            step = self._cursor.next_positions
            node, positions = step()
            while node is not None and node < target:
                node, positions = step()
        self._node = node
        self._positions = positions
        self._pointer = 0
        return node

    def rewind_positions(self) -> None:
        """Return to the current entry's first position (no cursor operation)."""
        self._pointer = 0

    def entry_count(self) -> int:
        """Length of the underlying inverted list (for rarest-first ordering)."""
        return self._cursor.entry_count()

    def advance_position(self, min_offset: int) -> bool:
        """Move to the current entry's first position with offset
        ``>= min_offset``; ``False`` when the entry has none."""
        positions = self._positions
        pointer = self._pointer
        count = len(positions)
        while pointer < count and positions[pointer].offset < min_offset:
            pointer += 1
        self._pointer = pointer
        return pointer < count

    def position(self) -> Position:
        try:
            return self._positions[self._pointer]
        except IndexError:
            raise EvaluationError("scan operator has no current position") from None


class JoinOperator(PlanOperator):
    """CNode sort-merge join (paper, Algorithm 1)."""

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        self.left = left
        self.right = right
        self._node: int | None = None

    def advance_node(self) -> int | None:
        left_node = self.left.advance_node()
        right_node = self.right.advance_node()
        while (
            left_node is not None
            and right_node is not None
            and left_node != right_node
        ):
            # Zig-zag: skip the side that is behind up to the other side's
            # node.  With paper-mode cursors this performs (and charges)
            # exactly the sequential steps of the original pairwise loop;
            # with fast-mode cursors each skip is one galloping seek.
            if left_node < right_node:
                left_node = self.left.advance_node_to(right_node)
            else:
                right_node = self.right.advance_node_to(left_node)
        if left_node is None or right_node is None:
            self._node = None
            return None
        self._node = left_node
        return left_node

    def current_node(self) -> int | None:
        return self._node


class NodeUnionOperator(PlanOperator):
    """Node-level union of two closed subplans (paper, Algorithm 4).

    Each node id is produced exactly once, in ascending order.
    """

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        self.left = left
        self.right = right
        self._left_node: int | None = None
        self._right_node: int | None = None
        self._started = False
        self._node: int | None = None

    def advance_node(self) -> int | None:
        if not self._started:
            self._left_node = self.left.advance_node()
            self._right_node = self.right.advance_node()
            self._started = True
        else:
            if self._node is not None:
                if self._left_node == self._node:
                    self._left_node = self.left.advance_node()
                if self._right_node == self._node:
                    self._right_node = self.right.advance_node()
        if self._left_node is None and self._right_node is None:
            self._node = None
        elif self._left_node is None:
            self._node = self._right_node
        elif self._right_node is None:
            self._node = self._left_node
        else:
            self._node = min(self._left_node, self._right_node)
        return self._node

    def current_node(self) -> int | None:
        return self._node


class NodeDifferenceOperator(PlanOperator):
    """Node-level set difference (paper, Algorithm 5): left nodes not in right."""

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        self.left = left
        self.right = right
        self._right_node: int | None = None
        self._right_started = False
        self._node: int | None = None

    def advance_node(self) -> int | None:
        while True:
            node = self.left.advance_node()
            if node is None:
                self._node = None
                return None
            if not self._right_started:
                self._right_node = self.right.advance_node()
                self._right_started = True
            while self._right_node is not None and self._right_node < node:
                self._right_node = self.right.advance_node()
            if self._right_node is None or self._right_node != node:
                self._node = node
                return node

    def current_node(self) -> int | None:
        return self._node


class ZigZagJoinOperator(PlanOperator):
    """N-ary zig-zag (leapfrog) node merge over seek-capable inputs.

    Generalises :class:`JoinOperator` to ``n`` inputs: instead of a left-deep
    chain of pairwise sort-merges, one merge loop advances whichever input is
    behind the current candidate node directly to it via
    :meth:`PlanOperator.advance_node_to` -- a galloping seek when the input
    is a fast-mode :class:`ScanOperator`.  ``merge_order`` fixes the order in
    which inputs are visited (rarest list first pays off: the rarest input
    generates candidates, so the common inputs only ever seek).
    """

    def __init__(
        self,
        inputs: Sequence[PlanOperator],
        merge_order: Sequence[int] | None = None,
    ) -> None:
        if not inputs:
            raise EvaluationError("a zig-zag join needs at least one input")
        self.inputs = list(inputs)
        order = (
            list(merge_order)
            if merge_order is not None
            else list(range(len(self.inputs)))
        )
        if sorted(order) != list(range(len(self.inputs))):
            raise EvaluationError(
                f"merge order {order!r} is not a permutation of the "
                f"{len(self.inputs)} inputs"
            )
        self._ordered = [self.inputs[index] for index in order]
        self._node: int | None = None

    def advance_node(self) -> int | None:
        candidate = self._ordered[0].advance_node()
        if candidate is not None:
            candidate = self._align(candidate)
        self._node = candidate
        return candidate

    def _align(self, candidate: int) -> int | None:
        """Advance inputs (in merge order) until all sit on one node."""
        ordered = self._ordered
        while True:
            aligned = True
            for operator in ordered:
                # advance_node_to returns the current node unchanged (and
                # uncharged) when it is already >= candidate.
                node = operator.advance_node_to(candidate)
                if node is None:
                    return None
                if node > candidate:
                    candidate = node
                    aligned = False
            if aligned:
                return candidate

    def current_node(self) -> int | None:
        return self._node


class BoundPredicate(NamedTuple):
    """A predicate applied to scans of a block (by scan index), with constants."""

    predicate: Predicate
    attr_indices: tuple[int, ...]
    constants: tuple = ()


class BlockOperator(PlanOperator):
    """One conjunctive block: a node merge, then predicate trials per node.

    ``merge`` aligns the block's inputs -- its token ``scans`` and any closed
    conjuncts -- on common nodes; the operator reads positions from the
    scans directly.  On each merged node it runs one *trial* per ordering
    and returns the node once a trial finds positions satisfying every
    predicate: the selections and the final projection to CNode of the
    paper's Figure 4 (Algorithms 2–3), fused into one loop.

    An ordering lists scan indices whose positions one of NPRED's threads
    keeps non-decreasing (``p_{i1} <= p_{i2} <= ...``, Section 5.6); it must
    cover every scan of a negative predicate, and scans outside it are
    unconstrained.  PPRED passes the one empty ordering ``[()]``.  Several
    orderings run in lock-step on one merge, so the answer is the union of
    the per-ordering answers for the cursor work of one merge.  Trials move
    only position pointers, never cursors.
    """

    def __init__(
        self,
        scans: Sequence[ScanOperator],
        predicates: Sequence[BoundPredicate],
        orderings: Sequence[Sequence[int]],
        merge: PlanOperator,
    ) -> None:
        if not scans:
            raise EvaluationError("a block operator needs at least one token scan")
        for bound in predicates:
            if not all(0 <= attr < len(scans) for attr in bound.attr_indices):
                raise EvaluationError(
                    f"predicate {bound.predicate.name!r} binds scan indices "
                    f"{bound.attr_indices!r}; the block has {len(scans)} scans"
                )
        negative_attrs = {
            attr
            for bound in predicates
            if bound.predicate.polarity is Polarity.NEGATIVE
            for attr in bound.attr_indices
        }
        self.scans = list(scans)
        self.merge = merge
        #: One ``(ordered pairs, checks)`` trial per ordering: consecutive
        #: ``(earlier, later)`` scans, and per predicate ``(predicate,
        #: holds, its scans, constants, mover)`` where ``mover`` is the
        #: local index a negative predicate advances (``None``: positive).
        self._trials: list[tuple[list, list]] = []
        for ordering in orderings:
            covered = set(ordering)
            if len(covered) < len(ordering) or not (
                negative_attrs <= covered <= set(range(len(self.scans)))
            ):
                raise EvaluationError(
                    f"ordering {ordering!r} must list distinct scan indices "
                    "covering every scan of a negative predicate"
                )
            ordered = [self.scans[attr] for attr in ordering]
            rank = {attr: slot for slot, attr in enumerate(ordering)}
            checks = [self._check(bound, rank) for bound in predicates]
            self._trials.append((list(zip(ordered, ordered[1:])), checks))
        self._node: int | None = None

    def _check(self, bound: BoundPredicate, rank: dict[int, int]) -> tuple:
        predicate = bound.predicate
        attrs = bound.attr_indices
        mover = None
        if predicate.polarity is Polarity.NEGATIVE:
            # Algorithm 7: only "extending the gap" can make a negative
            # predicate true, so move the scan latest under the ordering.
            mover = max(range(len(attrs)), key=lambda local: rank[attrs[local]])
        scans = tuple(self.scans[attr] for attr in attrs)
        return predicate, predicate.holds, scans, tuple(bound.constants), mover

    # ------------------------------------------------------------------ API
    def advance_node(self) -> int | None:
        advance = self.merge.advance_node
        node = advance()
        while node is not None and not self._any_trial_succeeds():
            node = advance()
        self._node = node
        return node

    def current_node(self) -> int | None:
        return self._node

    # ------------------------------------------------------------- internals
    def _any_trial_succeeds(self) -> bool:
        """Run the orderings on the merged node in turn.

        The merge has just left every scan on its node's first position, so
        the first trial starts there; every later one first rewinds the
        position pointers that the trials before it moved.
        """
        for trial, (pairs, checks) in enumerate(self._trials):
            if trial:
                for scan in self.scans:
                    scan.rewind_positions()
            if (not pairs or _enforce_order(pairs)) and _satisfy(pairs, checks):
                return True
        return False


def _enforce_order(pairs) -> bool:
    """Restore an ordering's invariant ``p_{i1} <= ... <= p_{ik}``."""
    for earlier, later in pairs:
        previous = earlier.position().offset
        if later.position().offset < previous:
            if not later.advance_position(previous):
                return False
    return True


def _satisfy(pairs, checks) -> bool:
    """Advance the scans' positions until every predicate holds.

    Each failing predicate moves one scan (Algorithm 2's advance hint for a
    positive predicate, Algorithm 7's target for a negative one), then the
    ordering is restored and the predicates are checked again.
    """
    while True:
        for predicate, holds, scans, constants, mover in checks:
            current = [scan.position() for scan in scans]
            if not holds(current, constants):
                break
        else:
            return True
        if mover is None:
            for local, target in predicate.advance_hints(current, constants).items():
                if target > current[local].offset:
                    break
            else:
                raise EvaluationError(
                    f"predicate {predicate.name!r} produced no progressing "
                    "advance hint; it does not satisfy the positive-predicate "
                    "property"
                )
        else:
            local = mover
            target = predicate.advance_target(current, constants, mover)
        if not scans[local].advance_position(target):
            return False
        if pairs and not _enforce_order(pairs):
            return False


def rarest_first_order(inputs: Sequence[PlanOperator]) -> list[int]:
    """Merge order visiting the smallest inverted lists first.

    Inputs that expose :meth:`ScanOperator.entry_count` are sorted by list
    length; inputs without a size estimate (closed subplans, nested joins)
    keep their relative order after all sized inputs.
    """
    def sort_key(pair: tuple[int, PlanOperator]) -> tuple[int, int, int]:
        index, operator = pair
        count = getattr(operator, "entry_count", None)
        if callable(count):
            return (0, count(), index)
        return (1, 0, index)

    return [index for index, _ in sorted(enumerate(inputs), key=sort_key)]


def zigzag_node_intersect(
    cursors: Sequence[InvertedListCursor],
    merge_order: Sequence[int] | None = None,
) -> list[int]:
    """Node-granularity intersection of inverted lists by zig-zag merge.

    The shared merge kernel of the BOOL fast path: cursors are visited
    rarest-list-first, the rarest cursor generates candidate nodes and every
    other cursor seeks to them, so the work is bounded by the shortest list
    (times a logarithmic seek factor) instead of the sum of all list lengths.

    ``merge_order`` (a permutation of cursor indices, lead first) overrides
    the builtin entry-count ordering -- the hook the cost-based planner uses
    to lead with the cheapest list by document frequency.  The intersection
    result is the same set either way; only the cursor-op profile changes.
    """
    if not cursors:
        return []
    if merge_order is not None:
        if sorted(merge_order) != list(range(len(cursors))):
            raise EvaluationError(
                f"merge order {list(merge_order)!r} is not a permutation of "
                f"the {len(cursors)} cursors"
            )
        order = [cursors[index] for index in merge_order]
    else:
        order = sorted(cursors, key=lambda cursor: cursor.entry_count())
    lead = order[0]
    result: list[int] = []
    candidate = lead.next_entry()
    if candidate is None:
        return result
    while True:
        aligned = True
        for cursor in order:
            # seek returns the current node unchanged (and uncharged) when
            # it is already at or past the candidate.
            node = cursor.seek(candidate)
            if node is None:
                return result
            if node > candidate:
                candidate = node
                aligned = False
        if aligned:
            result.append(candidate)
            candidate = lead.next_entry()
            if candidate is None:
                return result


def collect_nodes(
    operator: PlanOperator, observer: "Callable[[int], None] | None" = None
) -> list[int]:
    """Drive ``advance_node`` to exhaustion and collect the node ids.

    ``observer`` is called with each node id as it is produced -- the hook
    the top-k pushdown uses to score-and-prune candidates *while* the cursor
    merge is still running, instead of in a second pass over the finished
    list.  Pass it only when every produced node is a final result (the
    root operator); intermediate merges must not observe.
    """
    result: list[int] = []
    node = operator.advance_node()
    if observer is None:
        while node is not None:
            result.append(node)
            node = operator.advance_node()
        return result
    while node is not None:
        result.append(node)
        observer(node)
        node = operator.advance_node()
    return result
