"""The BOOL / BOOL-NONEG evaluation engine (paper, Section 5.3).

BOOL queries ignore positions entirely, so evaluation is a merge of the
query-token inverted lists at the granularity of node ids:

* a string literal contributes the node ids of its inverted list;
* ``ANY`` contributes the node ids of ``IL_ANY``;
* ``AND`` intersects, ``OR`` unites;
* ``NOT`` complements with respect to the search context (which is why BOOL
  with unrestricted negation is charged for a scan of ``IL_ANY`` /
  ``SearchContext`` in the complexity model, while BOOL-NONEG -- negation
  only as ``... AND NOT ...`` -- never needs it).

Scoring: following Section 5.3 ("a scoring formula is associated with each
Boolean operator"), the engine can propagate per-node scores through the
Boolean operators of the query using a :class:`~repro.scoring.base.ScoringModel`:
token leaves start from the model's per-token document score, AND uses the
model's intersection rule, OR its union rule, and NOT complements
probabilistic scores (``1 - s``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import UnsupportedQueryError
from repro.index.cursor import FAST_MODE, PAPER_MODE, CursorFactory, CursorStats, check_access_mode
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.languages.bool_lang import is_bool_query
from repro.scoring.base import ScoringModel
from repro.engine.operators import zigzag_node_intersect
from repro.planner.optimizer import ANY_TOKEN
from repro.planner.physical import PhysicalPlan


@dataclass
class _NodeSet:
    """A sorted node-id list with optional per-node scores."""

    nodes: list[int]
    scores: dict[int, float]


class BoolEngine:
    """Merge-based evaluation of BOOL queries over inverted lists.

    ``access_mode`` selects how conjunctions read the inverted lists: in
    ``"paper"`` mode every query-token list is scanned to the end and the
    node sets are merged (the cost model of Section 5.3); in ``"fast"`` mode
    AND chains run the shared zig-zag merge over seek-capable cursors
    (:func:`repro.engine.operators.zigzag_node_intersect`), rarest list
    first, which touches only a logarithmic fraction of the longer lists.
    """

    name = "bool"

    def __init__(
        self,
        index: InvertedIndex,
        scoring: ScoringModel | None = None,
        access_mode: str = PAPER_MODE,
        physical: PhysicalPlan | None = None,
    ) -> None:
        self.index = index
        self.scoring = scoring
        self.access_mode = check_access_mode(access_mode)
        #: The planner's physical plan, when one was produced.  The engine
        #: consults it for the merge strategy and join order of conjunction
        #: leaves; no plan and "auto" choices (optimizer off) defer to the
        #: builtin static heuristics below.  Either way the node sets and
        #: scores are identical -- the plan only redirects cursor traffic.
        self.physical = physical

    # ------------------------------------------------------------------ API
    def evaluate(self, query: ast.QueryNode) -> list[int]:
        """Node ids satisfying ``query``, ascending."""
        return self.evaluate_with_stats(query)[0]

    def evaluate_scored(self, query: ast.QueryNode) -> dict[int, float]:
        """Node id -> propagated score for the matching nodes."""
        result, _ = self._evaluate(query)
        return {node: result.scores.get(node, 0.0) for node in result.nodes}

    def evaluate_with_stats(
        self,
        query: ast.QueryNode,
        factory: CursorFactory | None = None,
        observer=None,
    ) -> tuple[list[int], CursorStats]:
        """Evaluate; ``observer`` sees each result node exactly once.

        BOOL evaluation materialises node sets (OR / NOT / nested
        conjuncts), so unlike the PPRED pipeline the observer is fed after
        the merge finishes -- the top-k collector behind it only needs every
        final node once, in any order.
        """
        result, stats = self._evaluate(query, factory)
        if observer is not None:
            for node_id in result.nodes:
                observer(node_id)
        return result.nodes, stats

    # ------------------------------------------------------------- internals
    def _evaluate(
        self, query: ast.QueryNode, factory: CursorFactory | None = None
    ) -> tuple[_NodeSet, CursorStats]:
        if not is_bool_query(query):
            raise UnsupportedQueryError(
                "the BOOL engine only evaluates BOOL queries (string literals, "
                "ANY, NOT, AND, OR)"
            )
        if factory is None:
            factory = CursorFactory(mode=self.access_mode)
        result = self._eval(query, factory)
        return result, factory.collect_stats()

    def _eval(self, node: ast.QueryNode, factory: CursorFactory) -> _NodeSet:
        if isinstance(node, ast.TokenQuery):
            return self._token_leaf(node.token, factory)
        if isinstance(node, ast.AnyQuery):
            return self._any_leaf(factory)
        if isinstance(node, ast.AndQuery):
            if self.access_mode == FAST_MODE:
                return self._intersect_fast(node, factory)
            return self._intersect(
                self._eval(node.left, factory), self._eval(node.right, factory)
            )
        if isinstance(node, ast.OrQuery):
            return self._union(
                self._eval(node.left, factory), self._eval(node.right, factory)
            )
        if isinstance(node, ast.NotQuery):
            return self._complement(self._eval(node.operand, factory))
        raise UnsupportedQueryError(
            f"construct {type(node).__name__} is outside the BOOL grammar"
        )

    # ---------------------------------------------------------------- leaves
    def _token_leaf(self, token: str, factory: CursorFactory) -> _NodeSet:
        nodes = self.index.open_cursor(token, factory).drain()
        scores: dict[int, float] = {}
        if self.scoring is not None:
            previous = self.scoring.query_tokens
            self.scoring.prepare([token])
            scores = {nid: self.scoring.document_score(nid) for nid in nodes}
            self.scoring.prepare(previous)
        return _NodeSet(nodes, scores)

    def _any_leaf(self, factory: CursorFactory) -> _NodeSet:
        nodes = self.index.open_any_cursor(factory).drain()
        return _NodeSet(nodes, {nid: 1.0 for nid in nodes} if self.scoring else {})

    #: The zig-zag merge pays off when the rarest list is at most this
    #: fraction of the longest one; above it, skip gaps are so short that
    #: the sequential full-scan merge is cheaper than per-entry seeks.
    ZIGZAG_SELECTIVITY_RATIO = 6

    # ------------------------------------------------------------ operators
    def _intersect_fast(self, node: ast.AndQuery, factory: CursorFactory) -> _NodeSet:
        """Evaluate an AND chain with the shared zig-zag cursor merge.

        The chain is flattened; token/ANY leaves are merged in one n-ary
        zig-zag pass (rarest list first), and any non-leaf conjuncts (OR and
        NOT subqueries) are evaluated recursively and intersected at node
        level.  Scores are folded left-to-right over the original conjunct
        order, so scored results match the pairwise evaluation exactly.

        The zig-zag is only engaged when the leaf lists have a real
        selectivity gap (see ``ZIGZAG_SELECTIVITY_RATIO``); near-equal list
        lengths fall back to the sequential merge, which the cost model and
        measurements agree is faster there.
        """
        conjuncts = _flatten_and(node)
        leaf_indices = [
            index
            for index, conjunct in enumerate(conjuncts)
            if isinstance(conjunct, (ast.TokenQuery, ast.AnyQuery))
        ]
        leaves = [conjuncts[index] for index in leaf_indices]
        planned = self.physical.use_zigzag() if self.physical is not None else None
        if planned is None:
            use_zigzag = len(leaf_indices) >= 2 and self._zigzag_pays_off(leaves)
        else:
            use_zigzag = planned and len(leaf_indices) >= 2
        if not use_zigzag:
            return self._intersect(
                self._eval(node.left, factory), self._eval(node.right, factory)
            )
        cursors = [
            self.index.open_any_cursor(factory)
            if isinstance(conjuncts[index], ast.AnyQuery)
            else self.index.open_cursor(conjuncts[index].token, factory)
            for index in leaf_indices
        ]
        merge_order = None
        if self.physical is not None:
            leaf_names = [
                ANY_TOKEN if isinstance(leaf, ast.AnyQuery) else leaf.token
                for leaf in leaves
            ]
            merge_order = self.physical.order_for(leaf_names)
        nodes = zigzag_node_intersect(cursors, merge_order)
        leaf_set = set(leaf_indices)
        evaluated: dict[int, _NodeSet] = {
            index: self._eval(conjunct, factory)
            for index, conjunct in enumerate(conjuncts)
            if index not in leaf_set
        }
        for other in evaluated.values():
            members = set(other.nodes)
            nodes = [nid for nid in nodes if nid in members]
        scores: dict[int, float] = {}
        if self.scoring is not None and nodes:
            folded: dict[int, float] | None = None
            for index, conjunct in enumerate(conjuncts):
                current = self._conjunct_scores(conjunct, nodes, evaluated.get(index))
                if folded is None:
                    folded = current
                else:
                    folded = {
                        nid: self.scoring.combine_intersection(
                            folded[nid], current[nid]
                        )
                        for nid in nodes
                    }
            scores = folded or {}
        return _NodeSet(nodes, scores)

    def _zigzag_pays_off(self, leaves: list[ast.QueryNode]) -> bool:
        """Cost-based choice between the zig-zag merge and full scans."""
        counts = [
            len(self.index.any_list())
            if isinstance(leaf, ast.AnyQuery)
            else self.index.posting_list(leaf.token).document_frequency()
            for leaf in leaves
        ]
        smallest = min(counts)
        if smallest == 0:
            return True  # an empty list short-circuits the merge immediately
        return smallest * self.ZIGZAG_SELECTIVITY_RATIO <= max(counts)

    def _conjunct_scores(
        self,
        conjunct: ast.QueryNode,
        nodes: list[int],
        evaluated: _NodeSet | None,
    ) -> dict[int, float]:
        """Per-node scores of one AND conjunct, restricted to ``nodes``."""
        if evaluated is not None:
            return {nid: evaluated.scores.get(nid, 0.0) for nid in nodes}
        if isinstance(conjunct, ast.AnyQuery):
            return {nid: 1.0 for nid in nodes}
        previous = self.scoring.query_tokens
        self.scoring.prepare([conjunct.token])
        scores = {nid: self.scoring.document_score(nid) for nid in nodes}
        self.scoring.prepare(previous)
        return scores

    def _intersect(self, left: _NodeSet, right: _NodeSet) -> _NodeSet:
        right_set = set(right.nodes)
        nodes = [nid for nid in left.nodes if nid in right_set]
        scores = {}
        if self.scoring is not None:
            scores = {
                nid: self.scoring.combine_intersection(
                    left.scores.get(nid, 0.0), right.scores.get(nid, 0.0)
                )
                for nid in nodes
            }
        return _NodeSet(nodes, scores)

    def _union(self, left: _NodeSet, right: _NodeSet) -> _NodeSet:
        nodes = sorted(set(left.nodes) | set(right.nodes))
        scores = {}
        if self.scoring is not None:
            scores = {
                nid: self.scoring.combine_union(
                    left.scores.get(nid, 0.0), right.scores.get(nid, 0.0)
                )
                for nid in nodes
            }
        return _NodeSet(nodes, scores)

    def _complement(self, operand: _NodeSet) -> _NodeSet:
        matched = set(operand.nodes)
        nodes = [nid for nid in self.index.node_ids() if nid not in matched]
        scores = {}
        if self.scoring is not None:
            scores = {
                nid: 1.0 - operand.scores.get(nid, 0.0) for nid in nodes
            }
        return _NodeSet(nodes, scores)


def _flatten_and(node: ast.QueryNode) -> list[ast.QueryNode]:
    """The conjuncts of an AND chain in left-to-right (tree) order."""
    if isinstance(node, ast.AndQuery):
        return _flatten_and(node.left) + _flatten_and(node.right)
    return [node]
