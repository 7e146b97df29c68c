"""Pipelined plan operators over inverted-list cursors (PPRED, Algorithms 1–5).

The PPRED evaluation strategy (paper, Section 5.5.3) evaluates an operator
tree without materialising intermediate relations.  Every operator exposes the
same cursor-style API:

* ``advance_node()``      -- move to the next context node that has at least
  one result tuple and position the operator on that node's lexicographically
  smallest tuple; returns the node id or ``None``;
* ``current_node()``      -- the node the operator is currently on;
* ``advance_position(i, min_offset)`` -- within the current node, move to the
  smallest result tuple whose ``i``-th position has offset ``>= min_offset``
  (all other positions at least their current values); returns ``False`` when
  no such tuple exists in the node;
* ``position(i)``         -- the current value of the ``i``-th position.

The operators implemented here are the scan (over one inverted list), the
CNode sort-merge join, the predicate selection driven by positive-predicate
*advance hints*, projection, and the node-level union / difference used for
``OR`` and ``AND NOT`` of closed subqueries.

The API uses ``min_offset`` (advance to *at least* this offset) rather than
the paper's strict ``> pos`` convention; the two are interchangeable
(``> pos`` ≡ ``>= pos + 1``) and the inclusive form composes directly with
the predicates' advance hints.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.exceptions import EvaluationError
from repro.index.cursor import FAST_MODE, InvertedListCursor
from repro.model.positions import Position
from repro.model.predicates import Predicate


class PlanOperator:
    """Base class of pipelined plan operators."""

    arity: int = 0

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

    def advance_position(self, index: int, min_offset: int) -> bool:
        raise NotImplementedError

    def position(self, index: int) -> Position:
        raise NotImplementedError

    def positions(self) -> list[Position]:
        """All current positions (convenience for predicates and tests)."""
        return [self.position(i) for i in range(self.arity)]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.arity:
            raise EvaluationError(
                f"position index {index} out of range for arity {self.arity}"
            )


class ScanOperator(PlanOperator):
    """Sequential scan over one token inverted list (one position attribute)."""

    arity = 1

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

    def advance_position(self, index: int, min_offset: int) -> bool:
        if index != 0:  # the only attribute; _check_index raises
            self._check_index(index)
        positions = self._positions
        pointer = self._pointer
        count = len(positions)
        while pointer < count and positions[pointer].offset < min_offset:
            pointer += 1
        self._pointer = pointer
        return pointer < count

    def position(self, index: int) -> Position:
        if index != 0:
            self._check_index(index)
        try:
            return self._positions[self._pointer]
        except IndexError:
            raise EvaluationError("scan operator has no current position") from None


class JoinOperator(PlanOperator):
    """CNode sort-merge join (paper, Algorithm 1)."""

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        self.left = left
        self.right = right
        self.arity = left.arity + right.arity
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

    def advance_position(self, index: int, min_offset: int) -> bool:
        self._check_index(index)
        if index < self.left.arity:
            return self.left.advance_position(index, min_offset)
        return self.right.advance_position(index - self.left.arity, min_offset)

    def position(self, index: int) -> Position:
        self._check_index(index)
        if index < self.left.arity:
            return self.left.position(index)
        return self.right.position(index - self.left.arity)


class SelectOperator(PlanOperator):
    """Predicate selection driven by positive-predicate advance hints
    (paper, Algorithm 2)."""

    def __init__(
        self,
        operand: PlanOperator,
        predicate: Predicate,
        attr_indices: Sequence[int],
        constants: Sequence[object] = (),
    ) -> None:
        self.operand = operand
        self.predicate = predicate
        self.attr_indices = tuple(attr_indices)
        self.constants = tuple(constants)
        self.arity = operand.arity
        for idx in self.attr_indices:
            if not 0 <= idx < self.arity:
                raise EvaluationError(
                    f"selection attribute {idx} out of range for arity {self.arity}"
                )

    def advance_node(self) -> int | None:
        node = self.operand.advance_node()
        while node is not None and not self._advance_until_satisfied():
            node = self.operand.advance_node()
        return node

    def current_node(self) -> int | None:
        return self.operand.current_node()

    def advance_position(self, index: int, min_offset: int) -> bool:
        if not 0 <= index < self.arity:
            self._check_index(index)
        if not self.operand.advance_position(index, min_offset):
            return False
        return self._advance_until_satisfied()

    def position(self, index: int) -> Position:
        return self.operand.position(index)

    # ------------------------------------------------------------- internals
    def _advance_until_satisfied(self) -> bool:
        """Advance the input until the predicate holds (single forward scan)."""
        position = self.operand.position
        advance_position = self.operand.advance_position
        holds = self.predicate.holds
        advance_hints = self.predicate.advance_hints
        attr_indices = self.attr_indices
        constants = self.constants
        while True:
            current = [position(idx) for idx in attr_indices]
            if holds(current, constants):
                return True
            for local_index, target in advance_hints(current, constants).items():
                if target > current[local_index].offset:
                    if not advance_position(attr_indices[local_index], target):
                        return False
                    break
            else:
                raise EvaluationError(
                    f"predicate {self.predicate.name!r} produced no progressing "
                    "advance hint; it does not satisfy the positive-predicate "
                    "property"
                )


class ProjectOperator(PlanOperator):
    """Projection (paper, Algorithm 3).  ``keep`` lists the attributes retained.

    The common use in query plans is the final projection to ``CNode`` only
    (``keep = ()``), for which only node-level iteration is needed.
    """

    def __init__(self, operand: PlanOperator, keep: Sequence[int] = ()) -> None:
        self.operand = operand
        self.keep = tuple(keep)
        for idx in self.keep:
            if not 0 <= idx < operand.arity:
                raise EvaluationError(
                    f"projection attribute {idx} out of range for arity "
                    f"{operand.arity}"
                )
        self.arity = len(self.keep)

    def advance_node(self) -> int | None:
        return self.operand.advance_node()

    def current_node(self) -> int | None:
        return self.operand.current_node()

    def advance_position(self, index: int, min_offset: int) -> bool:
        self._check_index(index)
        return self.operand.advance_position(self.keep[index], min_offset)

    def position(self, index: int) -> Position:
        self._check_index(index)
        return self.operand.position(self.keep[index])


class NodeUnionOperator(PlanOperator):
    """Node-level union of two closed subplans (paper, Algorithm 4).

    Both inputs must already be node-level (arity 0); each node id is
    produced exactly once, in ascending order.
    """

    arity = 0

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        if left.arity != 0 or right.arity != 0:
            raise EvaluationError("node-level union requires arity-0 inputs")
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

    def advance_position(self, index: int, min_offset: int) -> bool:
        raise EvaluationError("node-level union supports node iteration only")

    def position(self, index: int) -> Position:
        raise EvaluationError("node-level union has no position attributes")


class NodeDifferenceOperator(PlanOperator):
    """Node-level set difference (paper, Algorithm 5): left nodes not in right."""

    arity = 0

    def __init__(self, left: PlanOperator, right: PlanOperator) -> None:
        if right.arity != 0:
            raise EvaluationError("node-level difference requires an arity-0 right input")
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

    def advance_position(self, index: int, min_offset: int) -> bool:
        raise EvaluationError("node-level difference supports node iteration only")

    def position(self, index: int) -> Position:
        raise EvaluationError("node-level difference has no position attributes")


class ZigZagJoinOperator(PlanOperator):
    """N-ary zig-zag (leapfrog) node merge over seek-capable inputs.

    Generalises :class:`JoinOperator` to ``n`` inputs: instead of a left-deep
    chain of pairwise sort-merges, one merge loop advances whichever input is
    behind the current candidate node directly to it via
    :meth:`PlanOperator.advance_node_to` -- a galloping seek when the input
    is a fast-mode :class:`ScanOperator`.  ``merge_order`` fixes the order in
    which inputs are visited (rarest list first pays off: the rarest input
    generates candidates, so the common inputs only ever seek); attribute
    indices are *not* affected by it -- they follow the input order, exactly
    as in a left-deep join chain.
    """

    def __init__(
        self,
        inputs: Sequence[PlanOperator],
        merge_order: Sequence[int] | None = None,
    ) -> None:
        if not inputs:
            raise EvaluationError("a zig-zag join needs at least one input")
        self.inputs = list(inputs)
        self.arity = sum(op.arity for op in self.inputs)
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
        #: Global attribute index -> (input operator, its local index).
        self._slots = [
            (op, local) for op in self.inputs for local in range(op.arity)
        ]
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

    def advance_position(self, index: int, min_offset: int) -> bool:
        if not 0 <= index < self.arity:
            self._check_index(index)
        operator, local = self._slots[index]
        return operator.advance_position(local, min_offset)

    def position(self, index: int) -> Position:
        if not 0 <= index < self.arity:
            self._check_index(index)
        operator, local = self._slots[index]
        return operator.position(local)


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
    PPRED root operator); intermediate merges must not observe.
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
