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

Implementation note: instead of stacking the modular PPRED operators, each
conjunctive block is evaluated by a fused :class:`NPredBlockOperator` that
holds the block's scan cursors directly, performs the multi-way node merge,
enforces the permutation order and applies all predicates (positive and
negative) in one loop.  This is behaviourally identical to the paper's
per-operator formulation -- the set of cursor movements is the same -- but
far easier to reason about.  The per-operator formulation remains available
for PPRED.

The engine also supports the paper's optimisation ("our implementation
generates only the necessary partial orders"): with ``orders="minimal"`` it
permutes only the cursors that participate in negative predicates.
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
    """Fused evaluation of one conjunctive block under one cursor ordering.

    ``ordering`` lists the scan indices whose positions the thread keeps in
    non-decreasing order (``p_{i1} <= p_{i2} <= ...``).  Every scan used by a
    negative predicate must be covered by the ordering; scans outside it are
    unconstrained (they behave exactly as in the PPRED evaluation).  The NPRED
    engine runs one such operator per ordering permutation and unions the
    results.

    The operator is node-level (arity 0): ``advance_node`` returns the next
    node that contains a solution compatible with the thread's ordering.
    """

    arity = 0

    def __init__(
        self,
        scans: Sequence[ops.ScanOperator],
        predicates: Sequence[_BoundPredicate],
        ordering: Sequence[int],
        extra_inputs: Sequence[ops.PlanOperator] = (),
    ) -> None:
        if not scans:
            raise EvaluationError("an NPRED block needs at least one token scan")
        if len(set(ordering)) != len(ordering) or any(
            not 0 <= attr < len(scans) for attr in ordering
        ):
            raise EvaluationError(
                f"ordering {ordering!r} is not a list of distinct scan indices"
            )
        covered = set(ordering)
        for bound in predicates:
            if bound.predicate.polarity is Polarity.NEGATIVE and not set(
                bound.attr_indices
            ) <= covered:
                raise EvaluationError(
                    f"negative predicate {bound.predicate.name!r} uses scans "
                    "outside the thread's ordering"
                )
        self.scans = list(scans)
        self.predicates = list(predicates)
        self.ordering = tuple(ordering)
        self.extra_inputs = list(extra_inputs)
        self._inputs: list[ops.PlanOperator] = self.scans + self.extra_inputs
        #: Scan index -> its slot in the thread's ordering.
        self._rank = {attr: slot for slot, attr in enumerate(self.ordering)}
        self._node: int | None = None

    # ------------------------------------------------------------------ API
    def advance_node(self) -> int | None:
        node = self._advance_all_inputs()
        while node is not None:
            node = self._align_inputs(node)
            if node is None:
                break
            if self._enforce_order() and self._satisfy_predicates():
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
    def _advance_all_inputs(self) -> int | None:
        highest: int | None = None
        for operator in self._inputs:
            node = operator.advance_node()
            if node is None:
                return None
            highest = node if highest is None else max(highest, node)
        return highest

    def _align_inputs(self, target: int) -> int | None:
        """Multi-way sort-merge: advance inputs until all sit on the same node.

        Skipping goes through the shared
        :meth:`~repro.engine.operators.PlanOperator.advance_node_to`
        primitive: sequential stepping (the paper's per-entry charge) for
        paper-mode cursors, one galloping seek for fast-mode cursors.
        """
        while True:
            changed = False
            for operator in self._inputs:
                node = operator.current_node()
                if node is not None and node < target:
                    node = operator.advance_node_to(target)
                    changed = True
                if node is None:
                    return None
                if node > target:
                    target = node
                    changed = True
            if not changed:
                return target

    def _enforce_order(self) -> bool:
        """Restore the ordering invariant ``p_{i1} <= ... <= p_{ik}``."""
        for slot in range(1, len(self.ordering)):
            previous = self.scans[self.ordering[slot - 1]].position(0)
            scan = self.scans[self.ordering[slot]]
            if scan.position(0).offset < previous.offset:
                if not scan.advance_position(0, previous.offset):
                    return False
        return True

    def _satisfy_predicates(self) -> bool:
        """Advance cursors until every predicate holds (Algorithm 7 loop)."""
        while True:
            positions = [scan.position(0) for scan in self.scans]
            failing = next(
                (bound for bound in self.predicates if not bound.holds(positions)),
                None,
            )
            if failing is None:
                return True
            if not self._advance_for(failing, positions):
                return False
            if not self._enforce_order():
                return False

    def _advance_for(
        self, bound: _BoundPredicate, positions: Sequence[Position]
    ) -> bool:
        local_positions = [positions[idx] for idx in bound.attr_indices]
        if bound.predicate.polarity is Polarity.NEGATIVE:
            # Move the cursor holding the largest position under the thread's
            # ordering (Algorithm 7): only "extending the gap" can make a
            # negative predicate true.
            rank = self._rank
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
    """Permutation-threaded evaluation of negative-predicate queries."""

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
        #: is *semantic* (the permutation threads enforce position orderings
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

        The permutation threads can each rediscover the same node, so the
        observer is fed from the deduplicated, sorted union -- never from
        inside a thread.
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
        results: set[int] = set()
        for permutation in self._permutations(block, bound_predicates):
            scans = [
                ops.ScanOperator(self.index.open_cursor(token, factory))
                for _, token in block.bindings
            ]
            extra = [
                self._closed_operator(conjunct, factory)
                for conjunct in block.closed_conjuncts
            ]
            operator = NPredBlockOperator(scans, bound_predicates, permutation, extra)
            results.update(ops.collect_nodes(operator))
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
        """Cursor orderings to evaluate: one evaluation thread per ordering.

        With ``orders="all"`` every permutation of all query-token cursors is
        used, as in the paper's basic algorithm (up to ``toks_Q!`` threads).
        With ``orders="minimal"`` (the paper's "only the necessary partial
        orders" optimisation) only the cursors that participate in negative
        predicates are ordered -- cursors outside the ordering are left
        unconstrained, so positive-only blocks run as a single thread with no
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
