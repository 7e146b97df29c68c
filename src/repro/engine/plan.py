"""Query plans for the pipelined engines (PPRED and NPRED).

The PPRED/NPRED grammars are, in practice, built from *conjunctive blocks*:
a group of ``SOME`` quantifiers binding position variables to tokens
(``var HAS 'tok'`` or bare string literals), a set of position predicates
over those variables, optional ``AND NOT closed-subquery`` conjuncts
(evaluated independently and subtracted at node level), and optional closed
conjuncts such as a parenthesised ``OR`` of keywords (joined at node level).
``OR`` combines closed blocks at node level.

:func:`extract_plan` converts a (closed) surface query into this structure
-- a tree of :class:`BlockPlan`, :class:`UnionPlan`, :class:`DifferencePlan`
and :class:`IntersectPlan` nodes -- and reports *why* a query falls outside
the supported shape via :class:`~repro.exceptions.UnsupportedQueryError`
(the executor then falls back to COMP, the calculus node by node).

The mapping from a plan to an operator tree (Figure 4 of the paper) is
:class:`~repro.engine.ppred_engine.PPredEngine`'s builder, which the NPRED
engine inherits: both build the same operators for a block, and NPRED only
adds the cursor orderings its block operator tries on each node.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import UnsupportedQueryError
from repro.languages import ast
from repro.model.predicates import Polarity, PredicateRegistry, default_registry


@dataclass(frozen=True)
class PredicateSpec:
    """One predicate application inside a block, referring to block variables."""

    name: str
    variables: tuple[str, ...]
    constants: tuple = ()


@dataclass
class BlockPlan:
    """A conjunctive block: token bindings, predicates, and node-level extras."""

    #: ordered (variable, token) bindings; anonymous literals get fresh names.
    bindings: list[tuple[str, str]] = field(default_factory=list)
    predicates: list[PredicateSpec] = field(default_factory=list)
    #: closed subqueries subtracted from the block at node level (AND NOT ...).
    negated: list["PlanNode"] = field(default_factory=list)
    #: closed subplans intersected with the block at node level.
    closed_conjuncts: list["PlanNode"] = field(default_factory=list)

    def variables(self) -> list[str]:
        return [var for var, _ in self.bindings]

    def attribute_of(self, var: str) -> int:
        try:
            return self.variables().index(var)
        except ValueError as exc:
            raise UnsupportedQueryError(
                f"predicate variable {var!r} is not bound to a token in its block"
            ) from exc

    def polarities(self, registry: PredicateRegistry) -> set[Polarity]:
        return {registry.polarity_of(spec.name) for spec in self.predicates}


@dataclass
class UnionPlan:
    """Node-level union of two closed subplans (OR)."""

    left: "PlanNode"
    right: "PlanNode"


@dataclass
class DifferencePlan:
    """Node-level difference: ``left AND NOT right`` for closed subplans."""

    left: "PlanNode"
    right: "PlanNode"


@dataclass
class IntersectPlan:
    """Node-level intersection of two closed subplans (AND of closed queries)."""

    left: "PlanNode"
    right: "PlanNode"


PlanNode = "BlockPlan | UnionPlan | DifferencePlan | IntersectPlan"


def extract_plan(
    query: ast.QueryNode, registry: PredicateRegistry | None = None
) -> "BlockPlan | UnionPlan | DifferencePlan | IntersectPlan":
    """Build the pipelined-engine plan of a closed surface query.

    Raises :class:`UnsupportedQueryError` when the query uses constructs the
    pipelined engines cannot evaluate over inverted lists without ``IL_ANY``
    (EVERY, ANY, free-standing negation, open OR branches, ...).
    """
    registry = registry or default_registry()
    if not query.is_closed():
        raise UnsupportedQueryError(
            f"query has unbound position variables: {sorted(query.free_variables())}"
        )
    builder = _PlanBuilder(registry)
    return builder.build(query)


class _PlanBuilder:
    def __init__(self, registry: PredicateRegistry) -> None:
        self.registry = registry
        self._fresh = itertools.count(1)

    # ------------------------------------------------------------------ API
    def build(self, node: ast.QueryNode):
        if isinstance(node, ast.OrQuery):
            left, right = node.left, node.right
            if not left.is_closed() or not right.is_closed():
                raise UnsupportedQueryError(
                    "OR branches sharing position variables bound outside the OR "
                    "are not supported by the pipelined engines"
                )
            return UnionPlan(self.build(left), self.build(right))
        if isinstance(node, ast.NotQuery):
            raise UnsupportedQueryError(
                "free-standing negation requires the IL_ANY list (BOOL/COMP only)"
            )
        return self._build_block(node)

    # ------------------------------------------------------------- internals
    def _build_block(self, node: ast.QueryNode) -> "BlockPlan":
        block = BlockPlan()
        self._collect(node, block, {}, set())
        if not block.bindings and not block.closed_conjuncts:
            raise UnsupportedQueryError(
                "a conjunctive block needs at least one positive token "
                "or closed conjunct"
            )
        # Every predicate variable must be bound to a scanned token.
        for spec in block.predicates:
            for var in spec.variables:
                block.attribute_of(var)
        return block

    def _collect(
        self, node: ast.QueryNode, block: "BlockPlan", scope: dict, taken: set
    ) -> None:
        """Add ``node``'s conjuncts to ``block``.

        ``scope`` maps each position variable in scope to its block
        variable; ``taken`` holds every block variable a ``SOME`` of this
        block introduced, bound to a token or not.  A ``SOME`` whose name is
        taken (a shadowing or a sibling quantifier) gets a fresh block
        variable, so one block variable is one calculus variable.  A
        variable bound to a second token becomes a fresh scan of that token
        tied to the first by ``samepos``: one position holds one token.
        """
        if isinstance(node, ast.SomeQuery):
            var = self._fresh_var() if node.var in taken else node.var
            taken.add(var)
            self._collect(node.operand, block, {**scope, node.var: var}, taken)
            return
        if isinstance(node, ast.AndQuery):
            self._collect(node.left, block, scope, taken)
            self._collect(node.right, block, scope, taken)
            return
        if isinstance(node, ast.VarHasToken):
            var = scope.get(node.var, node.var)
            if (var, node.token) in block.bindings:
                return
            if var in block.variables():
                scan = self._fresh_var()
                block.bindings.append((scan, node.token))
                block.predicates.append(PredicateSpec("samepos", (var, scan)))
            else:
                block.bindings.append((var, node.token))
            return
        if isinstance(node, ast.TokenQuery):
            block.bindings.append((self._fresh_var(), node.token))
            return
        if isinstance(node, ast.PredQuery):
            variables = tuple(scope.get(var, var) for var in node.variables)
            block.predicates.append(
                PredicateSpec(node.name, variables, node.constants)
            )
            return
        if isinstance(node, ast.DistQuery):
            if node.first is None or node.second is None:
                raise UnsupportedQueryError(
                    "dist() with ANY requires the IL_ANY list (BOOL/COMP only)"
                )
            first_var = self._fresh_var()
            second_var = self._fresh_var()
            block.bindings.append((first_var, node.first))
            block.bindings.append((second_var, node.second))
            block.predicates.append(
                PredicateSpec("distance", (first_var, second_var), (node.limit,))
            )
            return
        if isinstance(node, ast.NotQuery):
            if not node.operand.is_closed():
                raise UnsupportedQueryError(
                    "negated subqueries must be closed (no free position variables)"
                )
            block.negated.append(self.build(node.operand))
            return
        if isinstance(node, ast.OrQuery):
            if not node.is_closed():
                raise UnsupportedQueryError(
                    "an OR conjunct inside a block must be closed"
                )
            block.closed_conjuncts.append(self.build(node))
            return
        if isinstance(node, (ast.AnyQuery, ast.VarHasAny)):
            raise UnsupportedQueryError(
                "the universal token ANY requires the IL_ANY list (BOOL/COMP only)"
            )
        if isinstance(node, ast.EveryQuery):
            raise UnsupportedQueryError(
                "the EVERY quantifier is only supported by the COMP engine"
            )
        raise UnsupportedQueryError(
            f"unsupported construct {type(node).__name__} in a conjunctive block"
        )

    def _fresh_var(self) -> str:
        return f"_tok{next(self._fresh)}"


def plan_blocks(plan) -> list[BlockPlan]:
    """All conjunctive blocks reachable from a plan (for classification/stats)."""
    if isinstance(plan, BlockPlan):
        result = [plan]
        for nested in plan.negated + plan.closed_conjuncts:
            result.extend(plan_blocks(nested))
        return result
    if isinstance(plan, (UnionPlan, DifferencePlan, IntersectPlan)):
        return plan_blocks(plan.left) + plan_blocks(plan.right)
    return []


def plan_polarities(plan, registry: PredicateRegistry | None = None) -> set[Polarity]:
    """Union of predicate polarities over every block of a plan."""
    registry = registry or default_registry()
    polarities: set[Polarity] = set()
    for block in plan_blocks(plan):
        polarities |= block.polarities(registry)
    return polarities


def describe_plan(plan, indent: int = 0) -> str:
    """Human-readable rendering of a plan tree (used by examples and docs)."""
    pad = "  " * indent
    if isinstance(plan, BlockPlan):
        lines = [f"{pad}Block"]
        for var, token in plan.bindings:
            lines.append(f"{pad}  scan {var} <- '{token}'")
        for spec in plan.predicates:
            args = ", ".join(spec.variables) + "".join(
                f", {const}" for const in spec.constants
            )
            lines.append(f"{pad}  select {spec.name}({args})")
        for nested in plan.closed_conjuncts:
            lines.append(f"{pad}  intersect-with:")
            lines.append(describe_plan(nested, indent + 2))
        for nested in plan.negated:
            lines.append(f"{pad}  minus:")
            lines.append(describe_plan(nested, indent + 2))
        return "\n".join(lines)
    name = type(plan).__name__.replace("Plan", "").lower()
    return "\n".join(
        [
            f"{pad}{name}",
            describe_plan(plan.left, indent + 1),
            describe_plan(plan.right, indent + 1),
        ]
    )
