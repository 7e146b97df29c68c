"""The full-text algebra (FTA).

The algebra (paper, Section 2.3) operates on full-text relations
(:class:`~repro.model.relations.FullTextRelation`).  This module defines the
algebra expression tree and its materialising (reference) semantics:

* base relations ``SearchContext``, ``HasPos``, ``R_token``;
* operators ``π`` (projection, CNode always kept), ``⋈`` (CNode equi-join),
  ``σ_pred`` (selection by a position predicate), ``∪``, ``∩``, ``−``.

An algebra *query* is an expression whose result relation has zero position
attributes (only ``CNode``); its answer is the set of node ids in the result.

The materialising evaluator here runs the naive COMP engine -- the figures'
instrument and the tests' second oracle -- and the equivalence tests; the
pipelined evaluation over inverted-list cursors lives in :mod:`repro.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.exceptions import EvaluationError, QuerySemanticsError
from repro.model.predicates import PredicateRegistry, default_registry
from repro.model.relations import FullTextRelation, ScoreCombiner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (corpus -> model)
    from repro.corpus.collection import Collection


class AlgebraExpr:
    """Base class of algebra expression nodes."""

    def arity(self) -> int:
        """Number of position attributes of the result relation."""
        raise NotImplementedError

    def children(self) -> Sequence["AlgebraExpr"]:
        return ()

    def to_text(self) -> str:
        """A compact textual rendering used in plans and error messages."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.to_text()


@dataclass(frozen=True, repr=False)
class SearchContextRel(AlgebraExpr):
    """The ``SearchContext`` relation: one tuple ``(node)`` per context node."""

    def arity(self) -> int:
        return 0

    def to_text(self) -> str:
        return "SearchContext"


@dataclass(frozen=True, repr=False)
class HasPosRel(AlgebraExpr):
    """The ``HasPos`` relation: one tuple ``(node, pos)`` per node position."""

    def arity(self) -> int:
        return 1

    def to_text(self) -> str:
        return "HasPos"


@dataclass(frozen=True, repr=False)
class TokenRel(AlgebraExpr):
    """``R_token``: one tuple ``(node, pos)`` per occurrence of ``token``."""

    token: str

    def arity(self) -> int:
        return 1

    def to_text(self) -> str:
        return f"R['{self.token}']"


@dataclass(frozen=True, repr=False)
class Project(AlgebraExpr):
    """``π_{CNode, keep...}``: keep the listed position attributes, in order."""

    operand: AlgebraExpr
    keep: tuple[int, ...]

    def __post_init__(self) -> None:
        inner = self.operand.arity()
        for idx in self.keep:
            if not 0 <= idx < inner:
                raise QuerySemanticsError(
                    f"projection keeps attribute {idx}, but input arity is {inner}"
                )

    def arity(self) -> int:
        return len(self.keep)

    def children(self) -> Sequence[AlgebraExpr]:
        return (self.operand,)

    def to_text(self) -> str:
        attrs = ", ".join(f"att{idx + 1}" for idx in self.keep)
        attrs = f"CNode, {attrs}" if attrs else "CNode"
        return f"project[{attrs}]({self.operand.to_text()})"


@dataclass(frozen=True, repr=False)
class Join(AlgebraExpr):
    """CNode equi-join; positions of the right input are appended to the left."""

    left: AlgebraExpr
    right: AlgebraExpr

    def arity(self) -> int:
        return self.left.arity() + self.right.arity()

    def children(self) -> Sequence[AlgebraExpr]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"join({self.left.to_text()}, {self.right.to_text()})"


@dataclass(frozen=True, repr=False)
class Select(AlgebraExpr):
    """``σ_pred(att_i1, .., att_im, c1, .., cq)``."""

    operand: AlgebraExpr
    predicate: str
    attr_indices: tuple[int, ...]
    constants: tuple = ()

    def __post_init__(self) -> None:
        inner = self.operand.arity()
        for idx in self.attr_indices:
            if not 0 <= idx < inner:
                raise QuerySemanticsError(
                    f"selection uses attribute {idx}, but input arity is {inner}"
                )

    def arity(self) -> int:
        return self.operand.arity()

    def children(self) -> Sequence[AlgebraExpr]:
        return (self.operand,)

    def to_text(self) -> str:
        args = ", ".join(f"att{idx + 1}" for idx in self.attr_indices)
        consts = "".join(f", {const!r}" for const in self.constants)
        return f"select[{self.predicate}({args}{consts})]({self.operand.to_text()})"


class _SetOperation(AlgebraExpr):
    """Common base of union / intersection / difference."""

    symbol = "?"

    def __init__(self, left: AlgebraExpr, right: AlgebraExpr) -> None:
        if left.arity() != right.arity():
            raise QuerySemanticsError(
                f"{type(self).__name__} of relations with arities "
                f"{left.arity()} and {right.arity()}"
            )
        self.left = left
        self.right = right

    def arity(self) -> int:
        return self.left.arity()

    def children(self) -> Sequence[AlgebraExpr]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"({self.left.to_text()} {self.symbol} {self.right.to_text()})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.left == other.left  # type: ignore[attr-defined]
            and self.right == other.right  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.left, self.right))


class Union(_SetOperation):
    """Set union of two full-text relations of the same arity."""

    symbol = "UNION"


class Intersect(_SetOperation):
    """Set intersection of two full-text relations of the same arity."""

    symbol = "INTERSECT"


class Difference(_SetOperation):
    """Set difference of two full-text relations of the same arity."""

    symbol = "MINUS"


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class AlgebraQuery:
    """An algebra expression producing a relation with only the CNode attribute."""

    expr: AlgebraExpr

    def __post_init__(self) -> None:
        if self.expr.arity() != 0:
            raise QuerySemanticsError(
                "an algebra query must produce a relation with a single CNode "
                f"attribute; got arity {self.expr.arity()}"
            )

    def to_text(self) -> str:
        return self.expr.to_text()


# --------------------------------------------------------------------------
# Materialising evaluation
# --------------------------------------------------------------------------
class AlgebraEvaluator:
    """Reference (materialising) semantics of the full-text algebra.

    Base relations are computed straight from the collection; every operator
    materialises its full output.  This is exactly the naive COMP evaluation
    strategy of Section 5.4 and also serves as the oracle that the pipelined
    engines are validated against.

    A :class:`ScoreCombiner` may be supplied together with ``base_scores``
    (a callable giving the initial score of a ``(node_id, position, token)``
    occurrence); the evaluator then propagates scores through every operator
    using the paper's scoring framework.
    """

    def __init__(
        self,
        collection: "Collection",
        registry: PredicateRegistry | None = None,
        combiner: ScoreCombiner | None = None,
        base_scores=None,
    ) -> None:
        self.collection = collection
        self.registry = registry or default_registry()
        self.combiner = combiner
        self.base_scores = base_scores

    # ------------------------------------------------------------------ API
    def evaluate(self, expr: AlgebraExpr) -> FullTextRelation:
        """Evaluate an algebra expression to a materialised relation."""
        if isinstance(expr, SearchContextRel):
            return self._search_context()
        if isinstance(expr, HasPosRel):
            return self._has_pos()
        if isinstance(expr, TokenRel):
            return self._token_relation(expr.token)
        if isinstance(expr, Project):
            return self.evaluate(expr.operand).project(expr.keep, self.combiner)
        if isinstance(expr, Join):
            return self.evaluate(expr.left).join(
                self.evaluate(expr.right), self.combiner
            )
        if isinstance(expr, Select):
            predicate = self.registry.get(expr.predicate)
            return self.evaluate(expr.operand).select(
                predicate, expr.attr_indices, expr.constants, self.combiner
            )
        if isinstance(expr, Union):
            return self.evaluate(expr.left).union(
                self.evaluate(expr.right), self.combiner
            )
        if isinstance(expr, Intersect):
            return self.evaluate(expr.left).intersection(
                self.evaluate(expr.right), self.combiner
            )
        if isinstance(expr, Difference):
            return self.evaluate(expr.left).difference(
                self.evaluate(expr.right), self.combiner
            )
        raise EvaluationError(f"unknown algebra node {type(expr).__name__}")

    def evaluate_query(self, query: AlgebraQuery) -> list[int]:
        """Node ids satisfying an algebra query, ascending."""
        return self.evaluate(query.expr).node_ids()

    # ------------------------------------------------------- base relations
    def _search_context(self) -> FullTextRelation:
        relation = FullTextRelation(0)
        for node in self.collection:
            relation.add((node.node_id,))
        return relation

    def _has_pos(self) -> FullTextRelation:
        relation = FullTextRelation(1)
        for node in self.collection:
            for position in node.positions():
                relation.add((node.node_id, position))
        return relation

    def _token_relation(self, token: str) -> FullTextRelation:
        relation = FullTextRelation(1)
        use_scores = self.combiner is not None and self.base_scores is not None
        if use_scores:
            relation.scores = {}
        for node in self.collection:
            for position in node.positions_of(token):
                row = (node.node_id, position)
                relation.add(row)
                if use_scores:
                    relation.scores[row] = self.base_scores(
                        node.node_id, position, token
                    )
        return relation


# --------------------------------------------------------------------------
# Structural measures (mirror of calculus.query_measures)
# --------------------------------------------------------------------------
def walk(expr: AlgebraExpr):
    """Pre-order traversal of an algebra expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def expression_measures(expr: AlgebraExpr) -> dict[str, int]:
    """Count scans, joins, selections and set operations in an expression."""
    scans = joins = selects = setops = projects = 0
    for node in walk(expr):
        if isinstance(node, (TokenRel, HasPosRel, SearchContextRel)):
            scans += 1
        elif isinstance(node, Join):
            joins += 1
        elif isinstance(node, Select):
            selects += 1
        elif isinstance(node, (Union, Intersect, Difference)):
            setops += 1
        elif isinstance(node, Project):
            projects += 1
    return {
        "scans": scans,
        "joins": joins,
        "selects": selects,
        "set_operations": setops,
        "projections": projects,
    }
