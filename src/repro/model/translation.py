"""Constructive translations between the calculus (FTC) and the algebra (FTA).

Theorem 1 of the paper states that the FTC and the FTA have the same
expressive power; its proof (Appendix A, Lemmas 1 and 2) is constructive.
This module implements both directions:

* :func:`calculus_to_algebra` / :func:`calculus_query_to_algebra` -- Lemma 2.
  Every calculus expression with free position variables ``p1..pk`` becomes an
  algebra expression over a relation whose position attributes correspond to
  those variables (the returned variable order gives the correspondence).
* :func:`algebra_to_calculus` / :func:`algebra_query_to_calculus` -- Lemma 1.

The naive COMP engine (Section 5.4; the figures' instrument and the tests'
second oracle) uses the calculus→algebra direction to turn a query into an
operator tree; the equivalence tests use both directions for round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import TranslationError
from repro.model import calculus as c
from repro.model import algebra as a
from repro.model.predicates import PredicateRegistry, default_registry


# --------------------------------------------------------------------------
# Calculus -> Algebra (Lemma 2)
# --------------------------------------------------------------------------
@dataclass
class TranslatedExpr:
    """An algebra expression plus the variable order of its position attributes."""

    expr: a.AlgebraExpr
    variables: list[str]

    @property
    def arity(self) -> int:
        return len(self.variables)


def _has_pos_power(count: int) -> a.AlgebraExpr:
    """Left-deep join of ``count`` copies of ``HasPos`` (count >= 1)."""
    if count < 1:
        raise TranslationError("HasPos power requires at least one attribute")
    expr: a.AlgebraExpr = a.HasPosRel()
    for _ in range(count - 1):
        expr = a.Join(expr, a.HasPosRel())
    return expr


def _reorder(translated: TranslatedExpr, target: Sequence[str]) -> a.AlgebraExpr:
    """Project ``translated`` so its attributes follow ``target`` exactly."""
    if list(target) == translated.variables:
        return translated.expr
    keep = tuple(translated.variables.index(var) for var in target)
    return a.Project(translated.expr, keep)


def _project_to(translated: TranslatedExpr, target: Sequence[str]) -> a.AlgebraExpr:
    """Project ``translated`` down to the subset ``target`` (order preserved)."""
    keep = tuple(translated.variables.index(var) for var in target)
    return a.Project(translated.expr, keep)


class _CalculusToAlgebra:
    """Stateful translator (keeps the predicate registry for arity checks)."""

    def __init__(self, registry: PredicateRegistry | None = None) -> None:
        self.registry = registry or default_registry()

    def translate(self, expr: c.CalculusExpr) -> TranslatedExpr:
        if isinstance(expr, c.HasPos):
            return TranslatedExpr(a.HasPosRel(), [expr.var])
        if isinstance(expr, c.HasToken):
            return TranslatedExpr(a.TokenRel(expr.token), [expr.var])
        if isinstance(expr, c.PredicateApplication):
            return self._predicate(expr)
        if isinstance(expr, c.Not):
            return self._negation(expr)
        if isinstance(expr, c.And):
            return self._conjunction(expr)
        if isinstance(expr, c.Or):
            return self._disjunction(expr)
        if isinstance(expr, c.Exists):
            return self._exists(expr)
        if isinstance(expr, c.Forall):
            rewritten = c.Not(c.Exists(expr.var, c.Not(expr.operand)))
            return self.translate(rewritten)
        raise TranslationError(f"unknown calculus node {type(expr).__name__}")

    # ------------------------------------------------------------ atom cases
    def _predicate(self, expr: c.PredicateApplication) -> TranslatedExpr:
        predicate = self.registry.get(expr.name)
        predicate.check_arity(expr.variables, expr.constants)
        unique_vars: list[str] = []
        for var in expr.variables:
            if var not in unique_vars:
                unique_vars.append(var)
        base = _has_pos_power(len(unique_vars))
        attr_indices = tuple(unique_vars.index(var) for var in expr.variables)
        select = a.Select(base, expr.name, attr_indices, tuple(expr.constants))
        return TranslatedExpr(select, unique_vars)

    # ------------------------------------------------------- boolean cases
    def _negation(self, expr: c.Not) -> TranslatedExpr:
        inner = self.translate(expr.operand)
        if inner.arity == 0:
            return TranslatedExpr(
                a.Difference(a.SearchContextRel(), inner.expr), []
            )
        universe = _has_pos_power(inner.arity)
        return TranslatedExpr(
            a.Difference(universe, inner.expr), list(inner.variables)
        )

    def _conjunction(self, expr: c.And) -> TranslatedExpr:
        # Selection push-down: a predicate conjunct whose variables are all
        # provided by the other conjunct becomes a plain selection on that
        # side's relation.  This produces exactly the operator shape of the
        # paper's Figure 4 (scan/join/select/project) instead of padding the
        # predicate with HasPos joins, and is a pure optimisation: the general
        # construction below remains available for every other case.
        pushed = self._try_push_predicate(expr.left, expr.right)
        if pushed is None:
            pushed = self._try_push_predicate(expr.right, expr.left)
        if pushed is not None:
            return pushed

        left = self.translate(expr.left)
        right = self.translate(expr.right)
        shared = [var for var in left.variables if var in right.variables]
        unique_left = [var for var in left.variables if var not in shared]
        unique_right = [var for var in right.variables if var not in shared]
        target = shared + unique_left + unique_right

        if not shared:
            return TranslatedExpr(a.Join(left.expr, right.expr), target)

        left_ordered = _reorder(left, shared + unique_left)
        right_ordered = _reorder(right, shared + unique_right)

        # left side: R1 tuples extended with the unique-right attributes of R2.
        if unique_right:
            first = a.Join(left_ordered, _project_to(right, unique_right))
        else:
            # Semi-join: keep R1 tuples whose node also appears in R2.
            first = a.Join(left_ordered, _project_to(right, []))
        # right side: R2 tuples extended with the unique-left attributes of R1,
        # then reordered to the target attribute order.
        if unique_left:
            second_raw = TranslatedExpr(
                a.Join(_project_to(left, unique_left), right_ordered),
                unique_left + shared + unique_right,
            )
        else:
            second_raw = TranslatedExpr(
                a.Join(_project_to(left, []), right_ordered),
                shared + unique_right,
            )
        second = _reorder(second_raw, target)
        return TranslatedExpr(a.Intersect(first, second), target)

    def _try_push_predicate(
        self, base_expr: c.CalculusExpr, predicate_expr: c.CalculusExpr
    ) -> TranslatedExpr | None:
        """Translate ``base AND pred`` as ``Select(base)`` when possible."""
        if not isinstance(predicate_expr, c.PredicateApplication):
            return None
        base = self.translate(base_expr)
        if not set(predicate_expr.variables) <= set(base.variables):
            return None
        predicate = self.registry.get(predicate_expr.name)
        predicate.check_arity(predicate_expr.variables, predicate_expr.constants)
        attr_indices = tuple(
            base.variables.index(var) for var in predicate_expr.variables
        )
        select = a.Select(
            base.expr,
            predicate_expr.name,
            attr_indices,
            tuple(predicate_expr.constants),
        )
        return TranslatedExpr(select, list(base.variables))

    def _disjunction(self, expr: c.Or) -> TranslatedExpr:
        left = self.translate(expr.left)
        right = self.translate(expr.right)
        shared = [var for var in left.variables if var in right.variables]
        unique_left = [var for var in left.variables if var not in shared]
        unique_right = [var for var in right.variables if var not in shared]
        target = shared + unique_left + unique_right

        left_ordered = _reorder(left, shared + unique_left)
        right_ordered = _reorder(right, shared + unique_right)

        # Pad each side with every node position for the variables it lacks,
        # matching the calculus semantics where unconstrained free variables
        # range over Positions(node).
        if unique_right:
            padded_left = a.Join(left_ordered, _has_pos_power(len(unique_right)))
        else:
            padded_left = left_ordered
        if unique_left:
            padded_right_raw = TranslatedExpr(
                a.Join(right_ordered, _has_pos_power(len(unique_left))),
                shared + unique_right + unique_left,
            )
            padded_right = _reorder(padded_right_raw, target)
        else:
            padded_right = right_ordered
        return TranslatedExpr(a.Union(padded_left, padded_right), target)

    # --------------------------------------------------------- quantifiers
    def _exists(self, expr: c.Exists) -> TranslatedExpr:
        inner = self.translate(expr.operand)
        if expr.var in inner.variables:
            remaining = [var for var in inner.variables if var != expr.var]
            keep = tuple(
                inner.variables.index(var) for var in remaining
            )
            return TranslatedExpr(a.Project(inner.expr, keep), remaining)
        # The quantified variable is not used: the quantifier only asserts
        # that the node has at least one position.
        joined = a.Join(inner.expr, a.HasPosRel())
        keep = tuple(range(inner.arity))
        return TranslatedExpr(a.Project(joined, keep), list(inner.variables))


def calculus_to_algebra(
    expr: c.CalculusExpr, registry: PredicateRegistry | None = None
) -> TranslatedExpr:
    """Translate a calculus expression into an algebra expression (Lemma 2)."""
    return _CalculusToAlgebra(registry).translate(expr)


def calculus_query_to_algebra(
    query: c.CalculusQuery, registry: PredicateRegistry | None = None
) -> a.AlgebraQuery:
    """Translate a closed calculus query into an algebra query."""
    translated = calculus_to_algebra(query.expr, registry)
    if translated.arity != 0:
        raise TranslationError(
            "query translation produced free attributes "
            f"{translated.variables}; the query is not closed"
        )
    return a.AlgebraQuery(translated.expr)


# --------------------------------------------------------------------------
# Algebra -> Calculus (Lemma 1)
# --------------------------------------------------------------------------
class _AlgebraToCalculus:
    """Stateful translator generating globally fresh variable names."""

    def __init__(self) -> None:
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"p{self._counter}"

    def translate(self, expr: a.AlgebraExpr) -> tuple[c.CalculusExpr, list[str]]:
        if isinstance(expr, a.SearchContextRel):
            var = self._fresh()
            tautology = c.Or(
                c.Exists(var, HasPosAtom(var)), c.Not(c.Exists(var, HasPosAtom(var)))
            )
            return tautology, []
        if isinstance(expr, a.HasPosRel):
            var = self._fresh()
            return HasPosAtom(var), [var]
        if isinstance(expr, a.TokenRel):
            var = self._fresh()
            return c.HasToken(var, expr.token), [var]
        if isinstance(expr, a.Project):
            return self._project(expr)
        if isinstance(expr, a.Join):
            left_expr, left_vars = self.translate(expr.left)
            right_expr, right_vars = self.translate(expr.right)
            return c.And(left_expr, right_expr), left_vars + right_vars
        if isinstance(expr, a.Select):
            inner, variables = self.translate(expr.operand)
            application = c.PredicateApplication(
                expr.predicate,
                tuple(variables[idx] for idx in expr.attr_indices),
                tuple(expr.constants),
            )
            return c.And(inner, application), variables
        if isinstance(expr, a.Union):
            return self._set_operation(expr, c.Or)
        if isinstance(expr, a.Intersect):
            return self._set_operation(expr, c.And)
        if isinstance(expr, a.Difference):
            return self._set_operation(
                expr, lambda left, right: c.And(left, c.Not(right))
            )
        raise TranslationError(f"unknown algebra node {type(expr).__name__}")

    def _project(self, expr: a.Project) -> tuple[c.CalculusExpr, list[str]]:
        inner, variables = self.translate(expr.operand)
        if len(set(expr.keep)) != len(expr.keep):
            raise TranslationError(
                "cannot translate a projection that duplicates attributes"
            )
        kept = [variables[idx] for idx in expr.keep]
        dropped = [var for var in variables if var not in kept]
        result = inner
        for var in dropped:
            result = c.Exists(var, result)
        return result, kept

    def _set_operation(self, expr, combine) -> tuple[c.CalculusExpr, list[str]]:
        left_expr, left_vars = self.translate(expr.left)
        right_expr, right_vars = self.translate(expr.right)
        if len(left_vars) != len(right_vars):
            raise TranslationError("set operation inputs have different arity")
        renaming = dict(zip(right_vars, left_vars))
        renamed_right = substitute_variables(right_expr, renaming)
        return combine(left_expr, renamed_right), left_vars


def HasPosAtom(var: str) -> c.CalculusExpr:
    """``hasPos(node, var)`` -- tiny helper keeping the translator readable."""
    return c.HasPos(var)


def substitute_variables(
    expr: c.CalculusExpr, renaming: dict[str, str]
) -> c.CalculusExpr:
    """Rename free variables of a calculus expression.

    Bound variables are left untouched; a renaming that would capture a bound
    variable raises :class:`TranslationError` (the translators always generate
    globally fresh names, so this cannot happen in normal use).
    """
    if isinstance(expr, c.HasPos):
        return c.HasPos(renaming.get(expr.var, expr.var))
    if isinstance(expr, c.HasToken):
        return c.HasToken(renaming.get(expr.var, expr.var), expr.token)
    if isinstance(expr, c.PredicateApplication):
        return c.PredicateApplication(
            expr.name,
            tuple(renaming.get(var, var) for var in expr.variables),
            expr.constants,
        )
    if isinstance(expr, c.Not):
        return c.Not(substitute_variables(expr.operand, renaming))
    if isinstance(expr, c.And):
        return c.And(
            substitute_variables(expr.left, renaming),
            substitute_variables(expr.right, renaming),
        )
    if isinstance(expr, c.Or):
        return c.Or(
            substitute_variables(expr.left, renaming),
            substitute_variables(expr.right, renaming),
        )
    if isinstance(expr, (c.Exists, c.Forall)):
        if expr.var in renaming.values():
            raise TranslationError(
                f"substitution would capture bound variable {expr.var!r}"
            )
        inner_renaming = {
            old: new for old, new in renaming.items() if old != expr.var
        }
        constructor = c.Exists if isinstance(expr, c.Exists) else c.Forall
        return constructor(
            expr.var, substitute_variables(expr.operand, inner_renaming)
        )
    raise TranslationError(f"unknown calculus node {type(expr).__name__}")


def algebra_to_calculus(expr: a.AlgebraExpr) -> tuple[c.CalculusExpr, list[str]]:
    """Translate an algebra expression into a calculus expression (Lemma 1).

    Returns the expression together with the list of free variables that
    correspond, in order, to the relation's position attributes.
    """
    return _AlgebraToCalculus().translate(expr)


def algebra_query_to_calculus(query: a.AlgebraQuery) -> c.CalculusQuery:
    """Translate an algebra query back into a closed calculus query."""
    expr, variables = algebra_to_calculus(query.expr)
    if variables:
        raise TranslationError(
            f"algebra query translation left free variables {variables}"
        )
    return c.CalculusQuery(expr)
