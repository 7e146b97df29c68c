"""The naive COMP evaluation engine (paper, Section 5.4).

COMP is evaluated by translating the query into the full-text calculus
(Section 4.3 semantics), from there into the full-text algebra (Theorem 1 /
Lemma 2), and evaluating the algebra expression with ordinary materialising
relational operators.  The join computes, per node, the cartesian product of
its inputs' position tuples, which is where the
``O(cnodes · pos_per_cnode^{toks_Q} · (preds_Q + ops_Q + 1))`` complexity
bound comes from.  It makes no attempt to be clever: it is the instrument
Figures 5-8 time and the tests' second oracle; search answers COMP by the calculus.

When a :class:`~repro.scoring.base.ScoringModel` is supplied, per-tuple
scores are propagated through every operator using the model's
transformations (Section 3), and per-node scores of the final relation are
reported alongside the node ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.collection import Collection
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.model.algebra import AlgebraEvaluator, AlgebraQuery
from repro.model.calculus import CalculusQuery
from repro.model.predicates import PredicateRegistry, default_registry
from repro.model.translation import calculus_query_to_algebra
from repro.scoring.base import ScoringModel


@dataclass
class NaiveEvaluation:
    """Result of a naive evaluation: node ids, optional scores, and the plan."""

    node_ids: list[int]
    scores: dict[int, float] = field(default_factory=dict)
    algebra_text: str = ""


class NaiveCompEngine:
    """Materialising FTA evaluation of arbitrary COMP queries."""

    name = "comp"

    def __init__(
        self,
        index: InvertedIndex,
        registry: PredicateRegistry | None = None,
        scoring: ScoringModel | None = None,
    ) -> None:
        self.index = index
        self.registry = registry or default_registry()
        self.scoring = scoring

    @property
    def collection(self) -> Collection:
        return self.index.collection

    # ------------------------------------------------------------------ API
    def evaluate(self, query: ast.QueryNode) -> list[int]:
        """Node ids satisfying ``query``, ascending."""
        return self.evaluate_full(query).node_ids

    def evaluate_full(self, query: ast.QueryNode) -> NaiveEvaluation:
        """Evaluate and return node ids, per-node scores and the algebra plan."""
        calculus_query = query.to_calculus_query()
        return self.evaluate_calculus(calculus_query, query_tokens=ast.query_tokens(query))

    def evaluate_calculus(
        self, calculus_query: CalculusQuery, query_tokens: set[str] | None = None
    ) -> NaiveEvaluation:
        """Evaluate an already-translated calculus query."""
        algebra_query = self.to_algebra(calculus_query)
        evaluator = self._make_evaluator(query_tokens or set())
        relation = evaluator.evaluate(algebra_query.expr)
        scores: dict[int, float] = {}
        if self.scoring is not None and relation.scores is not None:
            scores = relation.node_scores()
        return NaiveEvaluation(
            node_ids=relation.node_ids(),
            scores=scores,
            algebra_text=algebra_query.to_text(),
        )

    def to_algebra(self, calculus_query: CalculusQuery) -> AlgebraQuery:
        """The FTA expression the engine will evaluate (exposed for inspection)."""
        return calculus_query_to_algebra(calculus_query, self.registry)

    # ------------------------------------------------------------- internals
    def _make_evaluator(self, query_tokens: set[str]) -> AlgebraEvaluator:
        if self.scoring is None:
            return AlgebraEvaluator(self.collection, self.registry)
        self.scoring.prepare(sorted(query_tokens))
        return AlgebraEvaluator(
            self.collection,
            self.registry,
            combiner=self.scoring,
            base_scores=self.scoring.base_score,
        )
