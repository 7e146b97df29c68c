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

Implementation note: NPRED is PPRED's single-scan evaluation plus cursor
orderings, so :class:`NPredEngine` builds PPRED's operator tree and passes
each block's orderings to its :class:`~repro.engine.operators.BlockOperator`.
The node merge never looks at the predicates, so the paper's threads all
visit the same entries; the block merges once and runs the threads in
lock-step, trying each ordering on every merged node (from the node's first
positions, which costs no cursor operation) until one finds a solution.  The
answer is the union of the per-thread answers; the paper's one merge per
thread remains the specification and an upper bound on the work.

The engine also supports the paper's optimisation ("our implementation
generates only the necessary partial orders"): with ``orders="minimal"`` it
permutes only the cursors that participate in negative predicates, so fewer
trials run per node.
"""

from __future__ import annotations

import itertools

from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.index.cursor import PAPER_MODE
from repro.index.inverted_index import InvertedIndex
from repro.model.predicates import Polarity, PredicateRegistry
from repro.engine import operators as ops
from repro.engine.plan import BlockPlan, plan_polarities
from repro.engine.ppred_engine import PPredEngine


class NPredEngine(PPredEngine):
    """Ordering-trial evaluation of negative-predicate queries.

    Everything but the orderings is PPRED's: the lazy operator tree, each
    block's merge (including a physical plan's join order, which directs
    only the node merge -- the orderings constrain positions, not cursors),
    and the streaming of result nodes to the top-k observer.
    """

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
        super().__init__(index, registry, access_mode=access_mode, physical=physical)
        self.orders = orders

    def _orderings(
        self, block: BlockPlan, predicates: list[ops.BoundPredicate]
    ) -> list[tuple[int, ...]]:
        """Cursor orderings to try on each node: one per paper thread.

        With ``orders="all"`` every permutation of all query-token cursors is
        used, as in the paper's basic algorithm (up to ``toks_Q!`` threads).
        With ``orders="minimal"`` (the paper's "only the necessary partial
        orders" optimisation) only the cursors that participate in negative
        predicates are ordered -- cursors outside the ordering are left
        unconstrained, so positive-only blocks run a single trial with no
        ordering at all.
        """
        if self.orders == "all":
            return list(itertools.permutations(range(len(block.bindings))))
        negative_attrs: list[int] = []
        for bound in predicates:
            if bound.predicate.polarity is Polarity.NEGATIVE:
                for attr in bound.attr_indices:
                    if attr not in negative_attrs:
                        negative_attrs.append(attr)
        return list(itertools.permutations(negative_attrs))

    def _check_polarities(self, plan) -> None:
        if Polarity.GENERAL in plan_polarities(plan, self.registry):
            raise UnsupportedQueryError(
                "query uses predicates without positive/negative advance "
                "semantics; use the COMP engine"
            )
