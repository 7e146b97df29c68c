"""The full-text calculus (FTC).

The calculus (paper, Section 2.2) expresses full-text conditions as
first-order formulae over token positions.  A calculus *query* has the form::

    { node | SearchContext(node) ∧ QueryExpr(node) }

where ``QueryExpr`` is built from

* ``hasPos(node, p)``            -- :class:`HasPos`
* ``hasToken(p, 'tok')``         -- :class:`HasToken`
* ``pred(p1, .., pm, c1, .., cr)`` -- :class:`PredicateApplication`
* ``¬e``, ``e1 ∧ e2``, ``e1 ∨ e2`` -- :class:`Not`, :class:`And`, :class:`Or`
* ``∃p (hasPos(node, p) ∧ e)``   -- :class:`Exists`
* ``∀p (hasPos(node, p) ⇒ e)``   -- :class:`Forall`

The guarded quantification makes the calculus *safe*: every expression can be
evaluated by ranging position variables over ``Positions(node)`` only.  The
module also provides the reference (ground-truth) evaluator used by the test
suite to validate every query engine, and utilities for free-variable
analysis and structural measures (token/predicate/operator counts used by the
complexity model).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from repro.exceptions import QuerySemanticsError
from repro.model.positions import Position
from repro.model.predicates import PredicateRegistry, default_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (corpus -> model)
    from repro.corpus.collection import Collection
    from repro.corpus.document import ContextNode


class CalculusExpr:
    """Base class of calculus query-expression nodes."""

    def free_variables(self) -> set[str]:
        """The free position variables of this expression."""
        raise NotImplementedError

    def children(self) -> Sequence["CalculusExpr"]:
        """Direct sub-expressions (empty for atoms)."""
        return ()

    # Display helpers -------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return self.to_text()

    def to_text(self) -> str:
        """A compact, parseable-by-humans rendering of the expression."""
        raise NotImplementedError


@dataclass(frozen=True, repr=False)
class HasPos(CalculusExpr):
    """``hasPos(node, var)``: ``var`` is a position of the context node."""

    var: str

    def free_variables(self) -> set[str]:
        return {self.var}

    def to_text(self) -> str:
        return f"hasPos({self.var})"


@dataclass(frozen=True, repr=False)
class HasToken(CalculusExpr):
    """``hasToken(var, token)``: position ``var`` holds ``token``."""

    var: str
    token: str

    def free_variables(self) -> set[str]:
        return {self.var}

    def to_text(self) -> str:
        return f"hasToken({self.var}, '{self.token}')"


@dataclass(frozen=True, repr=False)
class PredicateApplication(CalculusExpr):
    """``pred(p1, .., pm, c1, .., cr)`` for a registered predicate ``pred``."""

    name: str
    variables: tuple[str, ...]
    constants: tuple = ()

    def free_variables(self) -> set[str]:
        return set(self.variables)

    def to_text(self) -> str:
        args = ", ".join(self.variables) + "".join(
            f", {const!r}" for const in self.constants
        )
        return f"{self.name}({args})"


@dataclass(frozen=True, repr=False)
class Not(CalculusExpr):
    """Logical negation."""

    operand: CalculusExpr

    def free_variables(self) -> set[str]:
        return self.operand.free_variables()

    def children(self) -> Sequence[CalculusExpr]:
        return (self.operand,)

    def to_text(self) -> str:
        return f"NOT ({self.operand.to_text()})"


@dataclass(frozen=True, repr=False)
class And(CalculusExpr):
    """Logical conjunction."""

    left: CalculusExpr
    right: CalculusExpr

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def children(self) -> Sequence[CalculusExpr]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"({self.left.to_text()} AND {self.right.to_text()})"


@dataclass(frozen=True, repr=False)
class Or(CalculusExpr):
    """Logical disjunction."""

    left: CalculusExpr
    right: CalculusExpr

    def free_variables(self) -> set[str]:
        return self.left.free_variables() | self.right.free_variables()

    def children(self) -> Sequence[CalculusExpr]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"({self.left.to_text()} OR {self.right.to_text()})"


@dataclass(frozen=True, repr=False)
class Exists(CalculusExpr):
    """``∃var (hasPos(node, var) ∧ operand)``."""

    var: str
    operand: CalculusExpr

    def free_variables(self) -> set[str]:
        return self.operand.free_variables() - {self.var}

    def children(self) -> Sequence[CalculusExpr]:
        return (self.operand,)

    def to_text(self) -> str:
        return f"EXISTS {self.var} ({self.operand.to_text()})"


@dataclass(frozen=True, repr=False)
class Forall(CalculusExpr):
    """``∀var (hasPos(node, var) ⇒ operand)``."""

    var: str
    operand: CalculusExpr

    def free_variables(self) -> set[str]:
        return self.operand.free_variables() - {self.var}

    def children(self) -> Sequence[CalculusExpr]:
        return (self.operand,)

    def to_text(self) -> str:
        return f"FORALL {self.var} ({self.operand.to_text()})"


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class CalculusQuery:
    """``{ node | SearchContext(node) ∧ expr(node) }``.

    ``expr`` must be closed with respect to position variables: the only free
    variable of a query is the implicit context-node variable.
    """

    expr: CalculusExpr

    def __post_init__(self) -> None:
        free = self.expr.free_variables()
        if free:
            raise QuerySemanticsError(
                f"calculus query has unbound position variables: {sorted(free)}"
            )

    def to_text(self) -> str:
        return "{ node | SearchContext(node) AND " + self.expr.to_text() + " }"


# --------------------------------------------------------------------------
# Reference evaluation (ground truth for all engines)
# --------------------------------------------------------------------------
class CalculusEvaluator:
    """Direct, per-node evaluation of calculus expressions.

    This evaluator materialises nothing: it simply recurses over the formula
    while binding position variables to positions of the node under
    evaluation.  It is intentionally straightforward; its purpose is to be a
    trusted oracle that every optimised engine is checked against.  Its one
    shortcut is an equivalence of the calculus, not a second evaluator: an
    ``EXISTS v`` whose body requires ``hasToken(v, t)`` ranges ``v`` over the
    positions of ``t`` only (:meth:`_exists_domain`).
    """

    def __init__(self, registry: PredicateRegistry | None = None) -> None:
        self.registry = registry or default_registry()

    # ------------------------------------------------------------------ API
    def evaluate_query(
        self, query: CalculusQuery, collection: Collection
    ) -> list[int]:
        """Node ids of ``collection`` satisfying the query, ascending."""
        return [
            node.node_id
            for node in collection
            if self.evaluate_on_node(query.expr, node)
        ]

    def evaluate_on_node(
        self,
        expr: CalculusExpr,
        node: ContextNode,
        bindings: Mapping[str, Position] | None = None,
    ) -> bool:
        """Evaluate ``expr`` on a single node under the given variable bindings."""
        return self._eval(expr, node, dict(bindings or {}))

    def satisfying_bindings(
        self, expr: CalculusExpr, node: ContextNode
    ) -> Iterator[dict[str, Position]]:
        """All assignments of the free variables of ``expr`` that satisfy it.

        Used by tests that compare against the algebra semantics, where an
        open expression corresponds to a relation over its free variables.
        """
        free = sorted(expr.free_variables())
        positions = node.positions()
        for combo in product(positions, repeat=len(free)):
            bindings = dict(zip(free, combo))
            if self._eval(expr, node, bindings):
                yield bindings

    # ------------------------------------------------------------ internals
    def _eval(
        self, expr: CalculusExpr, node: ContextNode, bindings: dict[str, Position]
    ) -> bool:
        if isinstance(expr, HasPos):
            return node.has_position(self._bound(expr.var, bindings))
        if isinstance(expr, HasToken):
            position = self._bound(expr.var, bindings)
            return node.token_at(position) == expr.token
        if isinstance(expr, PredicateApplication):
            predicate = self.registry.get(expr.name)
            positions = [self._bound(var, bindings) for var in expr.variables]
            return predicate(positions, expr.constants)
        if isinstance(expr, Not):
            return not self._eval(expr.operand, node, bindings)
        if isinstance(expr, And):
            return self._eval(expr.left, node, bindings) and self._eval(
                expr.right, node, bindings
            )
        if isinstance(expr, Or):
            return self._eval(expr.left, node, bindings) or self._eval(
                expr.right, node, bindings
            )
        if isinstance(expr, Exists):
            return self._eval_quantifier(expr, node, bindings, existential=True)
        if isinstance(expr, Forall):
            return self._eval_quantifier(expr, node, bindings, existential=False)
        raise QuerySemanticsError(f"unknown calculus node {type(expr).__name__}")

    def _eval_quantifier(
        self,
        expr: "Exists | Forall",
        node: ContextNode,
        bindings: dict[str, Position],
        existential: bool,
    ) -> bool:
        had_outer = expr.var in bindings
        outer_value = bindings.get(expr.var)
        domain = (
            self._exists_domain(expr, node) if existential else node.positions()
        )
        try:
            for position in domain:
                bindings[expr.var] = position
                satisfied = self._eval(expr.operand, node, bindings)
                if existential and satisfied:
                    return True
                if not existential and not satisfied:
                    return False
            return not existential
        finally:
            if had_outer:
                bindings[expr.var] = outer_value  # type: ignore[assignment]
            else:
                bindings.pop(expr.var, None)

    @staticmethod
    def _exists_domain(expr: Exists, node: ContextNode) -> Sequence[Position]:
        """The positions ``EXISTS var`` has to try on ``node``.

        ``∃v (hasToken(v, t) ∧ φ) ≡ ∃v ∈ Positions_t(n). φ``: when the body,
        after its own ``EXISTS`` prefix, has a top-level conjunct
        ``hasToken(var, t)`` that refers to this ``var`` (the prefix does not
        rebind it), every other position falsifies the body, so only ``t``'s
        positions are tried.  Any other shape ranges over ``Positions(n)``.
        """
        body = expr.operand
        while isinstance(body, Exists):
            if body.var == expr.var:
                return node.positions()
            body = body.operand
        pending = [body]
        while pending:
            part = pending.pop()
            if isinstance(part, And):
                pending += (part.left, part.right)
            elif isinstance(part, HasToken) and part.var == expr.var:
                return node.positions_of(part.token)
        return node.positions()

    @staticmethod
    def _bound(var: str, bindings: Mapping[str, Position]) -> Position:
        try:
            return bindings[var]
        except KeyError as exc:
            raise QuerySemanticsError(
                f"position variable {var!r} used before being bound"
            ) from exc


# --------------------------------------------------------------------------
# Structural analysis
# --------------------------------------------------------------------------
def walk(expr: CalculusExpr) -> Iterator[CalculusExpr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def query_measures(expr: CalculusExpr) -> dict[str, int]:
    """The paper's query-size parameters ``toks_Q``, ``preds_Q``, ``ops_Q``.

    Tokens count both string literals (``hasToken`` atoms) and uses of the
    universal token (``hasPos`` atoms standing alone correspond to ANY).
    Operations count NOT/AND/OR plus the quantifiers.
    """
    toks = preds = ops = 0
    for node in walk(expr):
        if isinstance(node, HasToken):
            toks += 1
        elif isinstance(node, HasPos):
            toks += 1
        elif isinstance(node, PredicateApplication):
            preds += 1
        elif isinstance(node, (Not, And, Or, Exists, Forall)):
            ops += 1
    return {"toks_Q": toks, "preds_Q": preds, "ops_Q": ops}


def used_predicates(expr: CalculusExpr) -> set[str]:
    """Names of all predicates applied anywhere in the expression."""
    return {
        node.name for node in walk(expr) if isinstance(node, PredicateApplication)
    }


def used_tokens(expr: CalculusExpr) -> set[str]:
    """All string-literal tokens referenced by the expression."""
    return {node.token for node in walk(expr) if isinstance(node, HasToken)}


def validate_predicates(
    expr: CalculusExpr, registry: PredicateRegistry | None = None
) -> None:
    """Check that every predicate application is registered with correct arity."""
    registry = registry or default_registry()
    for node in walk(expr):
        if isinstance(node, PredicateApplication):
            predicate = registry.get(node.name)
            predicate.check_arity(node.variables, node.constants)


# --------------------------------------------------------------------------
# Convenience constructors used throughout tests and docs
# --------------------------------------------------------------------------
def token_exists(token: str, var: str) -> CalculusExpr:
    """``∃var (hasPos(node, var) ∧ hasToken(var, token))``."""
    return Exists(var, HasToken(var, token))


def conjunction(*exprs: CalculusExpr) -> CalculusExpr:
    """Left-deep conjunction of one or more expressions."""
    if not exprs:
        raise QuerySemanticsError("conjunction of zero expressions")
    result = exprs[0]
    for expr in exprs[1:]:
        result = And(result, expr)
    return result


def disjunction(*exprs: CalculusExpr) -> CalculusExpr:
    """Left-deep disjunction of one or more expressions."""
    if not exprs:
        raise QuerySemanticsError("disjunction of zero expressions")
    result = exprs[0]
    for expr in exprs[1:]:
        result = Or(result, expr)
    return result
