"""The NPRED evaluation engine (paper, Section 5.6).

NPRED adds *negative* predicates (``not_distance``, ``not_ordered``,
``not_samepara``, ...).  The skip trick of PPRED -- always move the smallest
position -- no longer works: a negative predicate can only become true by
*extending* the gap between positions, so the evaluator must decide which
position to hold fixed and which to move.  The paper resolves this
non-determinism by running one evaluation thread per ordering permutation of
the query-token cursors (up to ``toks_Q!`` threads); each thread enforces its
permutation as an invariant (``p_{i1} <= ... <= p_{in}``) and, when a negative
predicate fails, moves only the cursor holding the largest position of the
predicate under that order (Algorithms 6 and 7).

Implementation note: each conjunctive block is evaluated by one fused
:class:`NPredBlockOperator` over one cursor set.  The node merge never looks
at the predicates, so the paper's threads all visit the same entries; the
operator merges once and runs the threads in lock-step, trying each ordering
on every aligned node (from the node's first positions, which costs no
cursor operation) until one finds a solution.  The answer is the union of
the per-thread answers; the paper's one merge per thread remains the
specification and an upper bound on the work.

The engine also supports the paper's optimisation ("our implementation
generates only the necessary partial orders"): with ``orders="minimal"`` it
permutes only the cursors that participate in negative predicates, so fewer
trials run per node.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.index.cursor import PAPER_MODE, CursorFactory, CursorStats, check_access_mode
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.model.positions import Position
from repro.model.predicates import Polarity, Predicate, PredicateRegistry, default_registry
from repro.engine import operators as ops
from repro.engine.plan import (
    BlockPlan,
    DifferencePlan,
    IntersectPlan,
    UnionPlan,
    extract_plan,
    plan_polarities,
)


class _BoundPredicate:
    """A predicate bound to the attribute indices of a block."""

    def __init__(
        self,
        predicate: Predicate,
        attr_indices: Sequence[int],
        constants: Sequence[object],
    ) -> None:
        self.predicate = predicate
        self.attr_indices = tuple(attr_indices)
        self.constants = tuple(constants)

    def holds(self, positions: Sequence[Position]) -> bool:
        return self.predicate.holds(
            [positions[idx] for idx in self.attr_indices], self.constants
        )


class NPredBlockOperator(ops.PlanOperator):
    """Fused evaluation of one conjunctive block under several orderings.

    Each ordering lists scan indices whose positions one of the paper's
    threads keeps non-decreasing (``p_{i1} <= p_{i2} <= ...``); it must cover
    every scan of a negative predicate, and scans outside it are
    unconstrained (as in the PPRED evaluation).  The operator is node-level
    (arity 0): ``advance_node`` merges to the next common node and tries the
    orderings there in turn, returning the node once one finds a solution --
    the union of the per-ordering answers, for the cursor work of one merge.
    """

    arity = 0

    def __init__(
        self,
        scans: Sequence[ops.ScanOperator],
        predicates: Sequence[_BoundPredicate],
        orderings: Sequence[Sequence[int]],
        extra_inputs: Sequence[ops.PlanOperator] = (),
    ) -> None:
        if not scans:
            raise EvaluationError("an NPRED block needs at least one token scan")
        negative_attrs = {
            attr
            for bound in predicates
            if bound.predicate.polarity is Polarity.NEGATIVE
            for attr in bound.attr_indices
        }
        self.scans = list(scans)
        self.predicates = list(predicates)
        self.extra_inputs = list(extra_inputs)
        self._inputs: list[ops.PlanOperator] = self.scans + self.extra_inputs
        #: One ``(rank, ordered pairs)`` trial per ordering: scan index -> its
        #: slot in the ordering, and consecutive ``(earlier, later)`` scans.
        self._trials: list[tuple[dict[int, int], list[tuple]]] = []
        for ordering in orderings:
            covered = set(ordering)
            if len(covered) < len(ordering) or not (
                negative_attrs <= covered <= set(range(len(scans)))
            ):
                raise EvaluationError(
                    f"ordering {ordering!r} must list distinct scan indices "
                    "covering every scan of a negative predicate"
                )
            ordered = [self.scans[attr] for attr in ordering]
            rank = {attr: slot for slot, attr in enumerate(ordering)}
            self._trials.append((rank, list(zip(ordered, ordered[1:]))))
        self._node: int | None = None

    # ------------------------------------------------------------------ API
    def advance_node(self) -> int | None:
        node = self._advance_all_inputs()
        while node is not None:
            node = self._align_inputs(node)
            if node is None:
                break
            if self._any_trial_succeeds():
                self._node = node
                return node
            node = self._advance_all_inputs()
        self._node = None
        return None

    def current_node(self) -> int | None:
        return self._node

    def advance_position(self, index: int, min_offset: int) -> bool:
        raise EvaluationError("NPRED blocks expose node-level iteration only")

    def position(self, index: int) -> Position:
        raise EvaluationError("NPRED blocks expose node-level iteration only")

    # ------------------------------------------------------------- internals
    def _any_trial_succeeds(self) -> bool:
        """Run the orderings on the aligned node, each from its first positions."""
        scans = self.scans
        for rank, ordered_pairs in self._trials:
            for scan in scans:
                scan.rewind_positions()
            if self._enforce_order(ordered_pairs) and self._satisfy_predicates(
                rank, ordered_pairs
            ):
                return True
        return False

    def _advance_all_inputs(self) -> int | None:
        highest = -1  # node ids are non-negative
        for operator in self._inputs:
            node = operator.advance_node()
            if node is None:
                return None
            if node > highest:
                highest = node
        return highest

    def _align_inputs(self, target: int) -> int | None:
        """Multi-way sort-merge: advance inputs until all sit on the same node.

        Skipping goes through the shared
        :meth:`~repro.engine.operators.PlanOperator.advance_node_to`
        primitive: sequential stepping (the paper's per-entry charge) for
        paper-mode cursors, one seek for fast-mode cursors.  A pass that
        ends with the target unchanged has left every input on it; only a
        raised target sends the merge round again.
        """
        inputs = self._inputs
        while True:
            raised = False
            for operator in inputs:
                node = operator.current_node()
                if node is not None and node < target:
                    node = operator.advance_node_to(target)
                if node is None:
                    return None
                if node > target:
                    target = node
                    raised = True
            if not raised:
                return target

    @staticmethod
    def _enforce_order(ordered_pairs) -> bool:
        """Restore the ordering invariant ``p_{i1} <= ... <= p_{ik}``."""
        for earlier, later in ordered_pairs:
            previous = earlier.position(0).offset
            if later.position(0).offset < previous:
                if not later.advance_position(0, previous):
                    return False
        return True

    def _satisfy_predicates(self, rank: dict[int, int], ordered_pairs) -> bool:
        """Advance cursors until every predicate holds (Algorithm 7 loop)."""
        scans = self.scans
        predicates = self.predicates
        while True:
            positions = [scan.position(0) for scan in scans]
            for bound in predicates:
                if not bound.holds(positions):
                    break
            else:
                return True
            advanced = self._advance_for(bound, positions, rank)
            if not advanced or not self._enforce_order(ordered_pairs):
                return False

    def _advance_for(
        self, bound: _BoundPredicate, positions: Sequence[Position], rank: dict
    ) -> bool:
        local_positions = [positions[idx] for idx in bound.attr_indices]
        if bound.predicate.polarity is Polarity.NEGATIVE:
            # Move the cursor holding the largest position under the trial's
            # ordering (Algorithm 7): only "extending the gap" can make a
            # negative predicate true.
            latest_local = max(
                range(len(bound.attr_indices)),
                key=lambda local: rank[bound.attr_indices[local]],
            )
            target = bound.predicate.advance_target(
                local_positions, bound.constants, latest_local
            )
            attr = bound.attr_indices[latest_local]
            return self.scans[attr].advance_position(0, target)
        hints = bound.predicate.advance_hints(local_positions, bound.constants)
        for local_index, target in hints.items():
            if target > local_positions[local_index].offset:
                attr = bound.attr_indices[local_index]
                return self.scans[attr].advance_position(0, target)
        raise EvaluationError(
            f"predicate {bound.predicate.name!r} produced no progressing hint"
        )


class NPredEngine:
    """Ordering-trial evaluation of negative-predicate queries."""

    name = "npred"

    def __init__(
        self,
        index: InvertedIndex,
        registry: PredicateRegistry | None = None,
        orders: str = "minimal",
        access_mode: str = PAPER_MODE,
        physical=None,
    ) -> None:
        if orders not in ("minimal", "all"):
            raise EvaluationError("orders must be 'minimal' or 'all'")
        self.index = index
        self.registry = registry or default_registry()
        self.orders = orders
        self.access_mode = check_access_mode(access_mode)
        #: Optional :class:`~repro.planner.physical.PhysicalPlan`, accepted
        #: for API uniformity with the other engines.  NPRED's cursor order
        #: is *semantic* (the ordering trials enforce position orderings
        #: over specific scans), so the plan's join order is not applied
        #: here; the plan still carries the access-mode and bound-strategy
        #: choices, which the executor applies around the engine.
        self.physical = physical

    # ------------------------------------------------------------------ API
    def evaluate(self, query: ast.QueryNode) -> list[int]:
        """Node ids satisfying ``query``, ascending."""
        return self.evaluate_with_stats(query)[0]

    def evaluate_with_stats(
        self,
        query: ast.QueryNode,
        factory: CursorFactory | None = None,
        plan=None,
        observer=None,
    ) -> tuple[list[int], CursorStats]:
        """Evaluate; ``observer`` sees each result node exactly once.

        Blocks combine by set algebra (``OR``, ``AND``, ``AND NOT``), so the
        observer is fed from the final sorted node set -- never from inside
        a block.
        """
        if plan is None:
            plan = extract_plan(query, self.registry)
        polarities = plan_polarities(plan, self.registry)
        if Polarity.GENERAL in polarities:
            raise UnsupportedQueryError(
                "query uses predicates without positive/negative advance "
                "semantics; use the COMP engine"
            )
        if factory is None:
            factory = CursorFactory(mode=self.access_mode)
        nodes = sorted(self._evaluate_plan(plan, factory))
        if observer is not None:
            for node_id in nodes:
                observer(node_id)
        return nodes, factory.collect_stats()

    # ------------------------------------------------------------- internals
    def _evaluate_plan(self, plan, factory: CursorFactory) -> set[int]:
        if isinstance(plan, BlockPlan):
            return self._evaluate_block(plan, factory)
        if isinstance(plan, UnionPlan):
            return self._evaluate_plan(plan.left, factory) | self._evaluate_plan(
                plan.right, factory
            )
        if isinstance(plan, IntersectPlan):
            return self._evaluate_plan(plan.left, factory) & self._evaluate_plan(
                plan.right, factory
            )
        if isinstance(plan, DifferencePlan):
            return self._evaluate_plan(plan.left, factory) - self._evaluate_plan(
                plan.right, factory
            )
        raise UnsupportedQueryError(f"unknown plan node {type(plan).__name__}")

    def _evaluate_block(self, block: BlockPlan, factory: CursorFactory) -> set[int]:
        bound_predicates = [
            _BoundPredicate(
                self.registry.get(spec.name),
                [block.attribute_of(var) for var in spec.variables],
                spec.constants,
            )
            for spec in block.predicates
        ]
        scans = [
            ops.ScanOperator(self.index.open_cursor(token, factory))
            for _, token in block.bindings
        ]
        extra = [
            self._closed_operator(conjunct, factory)
            for conjunct in block.closed_conjuncts
        ]
        orderings = list(self._permutations(block, bound_predicates))
        operator = NPredBlockOperator(scans, bound_predicates, orderings, extra)
        results = set(ops.collect_nodes(operator))
        for negated in block.negated:
            results -= self._evaluate_plan(negated, factory)
        return results

    def _closed_operator(self, plan, factory: CursorFactory) -> ops.PlanOperator:
        """Closed conjuncts carry no position variables; evaluate them once and
        replay the resulting node set as a node-level input of the block."""
        nodes = sorted(self._evaluate_plan(plan, factory))
        return _NodeSetOperator(nodes)

    def _permutations(
        self, block: BlockPlan, bound_predicates: Sequence[_BoundPredicate]
    ) -> Iterable[tuple[int, ...]]:
        """Cursor orderings to try on each node: one per paper thread.

        With ``orders="all"`` every permutation of all query-token cursors is
        used, as in the paper's basic algorithm (up to ``toks_Q!`` threads).
        With ``orders="minimal"`` (the paper's "only the necessary partial
        orders" optimisation) only the cursors that participate in negative
        predicates are ordered -- cursors outside the ordering are left
        unconstrained, so positive-only blocks run a single trial with no
        ordering at all.
        """
        count = len(block.bindings)
        everything = tuple(range(count))
        if self.orders == "all":
            yield from itertools.permutations(everything)
            return
        negative_attrs: list[int] = []
        for bound in bound_predicates:
            if bound.predicate.polarity is Polarity.NEGATIVE:
                for attr in bound.attr_indices:
                    if attr not in negative_attrs:
                        negative_attrs.append(attr)
        if not negative_attrs:
            yield ()
            return
        yield from itertools.permutations(negative_attrs)


class _NodeSetOperator(ops.PlanOperator):
    """Replay a precomputed, sorted node-id list through the operator API."""

    arity = 0

    def __init__(self, nodes: Sequence[int]) -> None:
        self._nodes = list(nodes)
        self._index = -1

    def advance_node(self) -> int | None:
        self._index += 1
        if self._index >= len(self._nodes):
            return None
        return self._nodes[self._index]

    def current_node(self) -> int | None:
        if 0 <= self._index < len(self._nodes):
            return self._nodes[self._index]
        return None

    def advance_position(self, index: int, min_offset: int) -> bool:
        raise EvaluationError("node-set operators expose node-level iteration only")

    def position(self, index: int) -> Position:
        raise EvaluationError("node-set operators have no position attributes")
