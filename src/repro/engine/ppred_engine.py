"""The PPRED evaluation engine (paper, Section 5.5).

PPRED queries -- positive predicates only, negation restricted to closed
subqueries -- are evaluated in a *single* forward scan over the query-token
inverted lists.  The engine turns the extracted plan
(:mod:`repro.engine.plan`) into a tree of pipelined operators
(:mod:`repro.engine.operators`): per conjunctive block one
:class:`ScanOperator` per token binding, a node merge of the scans and the
closed conjuncts (the left-deep :class:`JoinOperator` chain of Figure 4 of
the paper), and one :class:`BlockOperator` that applies the predicates and
projects to CNode.  Closed OR/AND-NOT subqueries become node-level union /
difference.  The NPRED engine (:mod:`repro.engine.npred_engine`) builds the
same tree and only adds cursor orderings to the blocks.

Complexity: ``O(entries_per_token · pos_per_entry · toks_Q ·
(preds_Q + ops_Q + 1))`` -- linear in the inverted-list data touched.
"""

from __future__ import annotations

from repro.exceptions import UnsupportedQueryError
from repro.index.cursor import FAST_MODE, PAPER_MODE, CursorFactory, CursorStats, check_access_mode
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.model.predicates import Polarity, PredicateRegistry, default_registry
from repro.engine import operators as ops
from repro.engine.plan import (
    BlockPlan,
    DifferencePlan,
    IntersectPlan,
    UnionPlan,
    extract_plan,
    plan_polarities,
)


class PPredEngine:
    """Single-scan evaluation of positive-predicate queries.

    In ``"paper"`` access mode each conjunctive block merges its inputs by
    the left-deep chain of pairwise
    :class:`~repro.engine.operators.JoinOperator` of the paper's Figure 4,
    driven by sequential cursors.  In ``"fast"`` mode the inputs are merged
    by one n-ary :class:`~repro.engine.operators.ZigZagJoinOperator` over
    seek-capable cursors, visiting the rarest inverted list first.  Either
    merge feeds one :class:`~repro.engine.operators.BlockOperator`, which
    checks the block's predicates on each merged node.
    """

    name = "ppred"

    def __init__(
        self,
        index: InvertedIndex,
        registry: PredicateRegistry | None = None,
        access_mode: str = PAPER_MODE,
        physical=None,
    ) -> None:
        self.index = index
        self.registry = registry or default_registry()
        self.access_mode = check_access_mode(access_mode)
        #: Optional :class:`~repro.planner.physical.PhysicalPlan`.  Supplies
        #: the zig-zag merge order of a block's token scans (cheapest list
        #: by document frequency leads); predicates bind to scans by binding
        #: order regardless, so the plan can only redirect cursor traffic,
        #: never change results.
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
        """Evaluate and also report how much inverted-list data was scanned.

        ``factory`` lets a caller see every cursor the run opens (EXPLAIN
        ANALYZE passes its own); ``plan`` supplies an already extracted
        plan instead of extracting one from ``query``.  ``observer``
        sees every result node exactly once, streamed from the root operator
        while the single forward scan is still running -- each node the plan
        produces is final, so the top-k pushdown can score-and-prune it
        immediately.
        """
        if plan is None:
            plan = extract_plan(query, self.registry)
        self._check_polarities(plan)
        if factory is None:
            factory = CursorFactory(mode=self.access_mode)
        operator = self.build_operator(plan, factory)
        nodes = ops.collect_nodes(operator, observer)
        return nodes, factory.collect_stats()

    # ----------------------------------------------------------- plan -> ops
    def build_operator(self, plan, factory: CursorFactory) -> ops.PlanOperator:
        """Build the pipelined operator tree for an extracted plan."""
        if isinstance(plan, BlockPlan):
            return self._build_block(plan, factory)
        if isinstance(plan, UnionPlan):
            return ops.NodeUnionOperator(
                self.build_operator(plan.left, factory),
                self.build_operator(plan.right, factory),
            )
        if isinstance(plan, DifferencePlan):
            return ops.NodeDifferenceOperator(
                self.build_operator(plan.left, factory),
                self.build_operator(plan.right, factory),
            )
        if isinstance(plan, IntersectPlan):
            return ops.JoinOperator(
                self.build_operator(plan.left, factory),
                self.build_operator(plan.right, factory),
            )
        raise UnsupportedQueryError(f"unknown plan node {type(plan).__name__}")

    def _build_block(self, block: BlockPlan, factory: CursorFactory) -> ops.PlanOperator:
        scans = [
            ops.ScanOperator(self.index.open_cursor(token, factory))
            for _, token in block.bindings
        ]
        closed = [
            self.build_operator(conjunct, factory)
            for conjunct in block.closed_conjuncts
        ]
        tree = self._build_merge(block, scans, scans + closed)
        if scans:
            predicates = [
                ops.BoundPredicate(
                    self.registry.get(spec.name),
                    tuple(block.attribute_of(var) for var in spec.variables),
                    spec.constants,
                )
                for spec in block.predicates
            ]
            tree = ops.BlockOperator(
                scans, predicates, self._orderings(block, predicates), tree
            )
        for negated in block.negated:
            tree = ops.NodeDifferenceOperator(
                tree, self.build_operator(negated, factory)
            )
        return tree

    def _build_merge(
        self,
        block: BlockPlan,
        scans: list[ops.ScanOperator],
        inputs: list[ops.PlanOperator],
    ) -> ops.PlanOperator:
        if not inputs:
            raise UnsupportedQueryError("empty conjunctive block")
        if self.access_mode == FAST_MODE and len(inputs) > 1:
            # One n-ary zig-zag merge, rarest inverted list first (or the
            # planner's join order when the plan covers this block's
            # tokens).
            merge_order = self._planned_order(block, scans, inputs)
            if merge_order is None:
                merge_order = ops.rarest_first_order(inputs)
            return ops.ZigZagJoinOperator(inputs, merge_order=merge_order)
        chain = inputs[0]
        for operator in inputs[1:]:
            chain = ops.JoinOperator(chain, operator)
        return chain

    def _planned_order(
        self,
        block: BlockPlan,
        scans: list[ops.ScanOperator],
        inputs: list[ops.PlanOperator],
    ) -> list[int] | None:
        """The plan's merge order for this block, or None for the builtin.

        The plan orders token scans only; closed-conjunct subplans (unsized)
        stay after all scans, mirroring :func:`ops.rarest_first_order`.  A
        token mismatch (multi-block plans where this block holds a subset of
        the query's tokens) falls back to the builtin order.
        """
        if self.physical is None or not scans:
            return None
        tokens = [token for _, token in block.bindings]
        scan_order = self.physical.order_for(tokens)
        if scan_order is None:
            return None
        return scan_order + list(range(len(scans), len(inputs)))

    def _orderings(
        self, block: BlockPlan, predicates: list[ops.BoundPredicate]
    ) -> list[tuple[int, ...]]:
        """The cursor orderings a block tries per node.

        PPRED's is the one empty ordering: no position order is enforced,
        and each node gets a single trial.
        """
        return [()]

    # ------------------------------------------------------------- validation
    def _check_polarities(self, plan) -> None:
        polarities = plan_polarities(plan, self.registry)
        if Polarity.NEGATIVE in polarities:
            raise UnsupportedQueryError(
                "query uses negative predicates; use the NPRED engine"
            )
        if Polarity.GENERAL in polarities:
            raise UnsupportedQueryError(
                "query uses predicates without positive advance semantics; "
                "use the COMP engine"
            )
