"""Property-based tests for the formal model (random calculus expressions).

The strategies build random *closed* calculus queries over a tiny token
universe and random small collections, then check:

* the FTC -> FTA translation preserves semantics (Theorem 1, Lemma 2);
* the FTA -> FTC back-translation preserves semantics (Lemma 1);
* the FTC -> COMP surface translation preserves semantics (Theorem 6),
  including a parser round-trip through the COMP concrete syntax;
* negation normal form and universal-quantifier elimination preserve
  semantics;
* the Theorem 4 BOOL construction agrees with the calculus on predicate-free
  queries over the finite vocabulary;
* the evaluator's narrowed ``EXISTS`` domains equal the literal
  ``Positions(n)^k`` loop over the full grammar.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.corpus import Collection, ContextNode
from repro.engine.bool_engine import BoolEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.index import InvertedIndex
from repro.languages.comp_lang import calculus_to_comp, parse_comp
from repro.model import calculus as c
from repro.model.algebra import AlgebraEvaluator
from repro.model.calculus import CalculusEvaluator, CalculusQuery
from repro.model.normalize import calculus_to_bool, eliminate_forall, to_nnf
from repro.model.translation import algebra_query_to_calculus, calculus_query_to_algebra

TOKENS = ["a", "b", "c"]
VARIABLES = ["v1", "v2", "v3"]

documents = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=8)


@st.composite
def collections(draw) -> Collection:
    docs = draw(st.lists(documents, min_size=1, max_size=5))
    return Collection.from_nodes(
        [
            ContextNode.from_tokens(idx, tokens, sentence_length=3, paragraph_length=4)
            for idx, tokens in enumerate(docs)
        ]
    )


@st.composite
def scope_expressions(draw, var: str, depth: int) -> c.CalculusExpr:
    """Boolean combinations of atoms over a single bound variable."""
    if depth == 0:
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return c.HasToken(var, draw(st.sampled_from(TOKENS)))
        if choice == 1:
            return c.HasPos(var)
        return c.Not(c.HasToken(var, draw(st.sampled_from(TOKENS))))
    choice = draw(st.integers(0, 2))
    left = draw(scope_expressions(var, depth - 1))
    right = draw(scope_expressions(var, depth - 1))
    if choice == 0:
        return c.And(left, right)
    if choice == 1:
        return c.Or(left, right)
    return c.Not(left)


@st.composite
def predicate_free_queries(draw, depth: int = 2) -> CalculusQuery:
    """Closed, predicate-free calculus queries (the Theorem 4 fragment)."""

    def closed(level: int) -> st.SearchStrategy[c.CalculusExpr]:
        if level == 0:
            return quantified_block()
        return st.one_of(
            quantified_block(),
            st.tuples(closed(level - 1), closed(level - 1)).map(
                lambda pair: c.And(*pair)
            ),
            st.tuples(closed(level - 1), closed(level - 1)).map(
                lambda pair: c.Or(*pair)
            ),
            closed(level - 1).map(c.Not),
        )

    def quantified_block() -> st.SearchStrategy[c.CalculusExpr]:
        @st.composite
        def build(inner_draw):
            var = inner_draw(st.sampled_from(VARIABLES))
            scope = inner_draw(scope_expressions(var, depth=1))
            quantifier = inner_draw(st.sampled_from([c.Exists, c.Forall]))
            return quantifier(var, scope)

        return build()

    return CalculusQuery(draw(closed(depth)))


@st.composite
def predicate_queries(draw) -> CalculusQuery:
    """Closed queries with two quantified variables and a position predicate."""
    first_token = draw(st.sampled_from(TOKENS))
    second_token = draw(st.sampled_from(TOKENS))
    predicate = draw(
        st.sampled_from(
            [
                c.PredicateApplication("distance", ("x", "y"), (draw(st.integers(0, 3)),)),
                c.PredicateApplication("ordered", ("x", "y")),
                c.PredicateApplication("samepara", ("x", "y")),
                c.PredicateApplication("diffpos", ("x", "y")),
            ]
        )
    )
    body = c.And(c.HasToken("x", first_token), c.And(c.HasToken("y", second_token), predicate))
    if draw(st.booleans()):
        body = c.And(
            c.HasToken("x", first_token),
            c.And(c.HasToken("y", second_token), c.Not(predicate)),
        )
    return CalculusQuery(c.Exists("x", c.Exists("y", body)))


ALL_QUERIES = st.one_of(predicate_free_queries(), predicate_queries())


@settings(max_examples=50, deadline=None)
@given(collections(), ALL_QUERIES)
def test_calculus_to_algebra_translation_preserves_semantics(collection, query):
    reference = CalculusEvaluator().evaluate_query(query, collection)
    algebra_query = calculus_query_to_algebra(query)
    assert AlgebraEvaluator(collection).evaluate_query(algebra_query) == reference


@settings(max_examples=30, deadline=None)
@given(collections(), ALL_QUERIES)
def test_algebra_back_translation_preserves_semantics(collection, query):
    reference = CalculusEvaluator().evaluate_query(query, collection)
    algebra_query = calculus_query_to_algebra(query)
    back = algebra_query_to_calculus(algebra_query)
    assert CalculusEvaluator().evaluate_query(back, collection) == reference


@settings(max_examples=50, deadline=None)
@given(collections(), ALL_QUERIES)
def test_theorem6_comp_translation_preserves_semantics(collection, query):
    reference = CalculusEvaluator().evaluate_query(query, collection)
    comp_query = calculus_to_comp(query)
    engine = NaiveCompEngine(InvertedIndex(collection))
    assert engine.evaluate(comp_query) == reference
    # Round-trip through the concrete COMP syntax.
    reparsed = parse_comp(comp_query.to_text())
    assert engine.evaluate(reparsed) == reference


@settings(max_examples=50, deadline=None)
@given(collections(), ALL_QUERIES)
def test_normal_forms_preserve_semantics(collection, query):
    evaluator = CalculusEvaluator()
    reference = evaluator.evaluate_query(query, collection)
    nnf = CalculusQuery(to_nnf(query.expr))
    no_forall = CalculusQuery(eliminate_forall(query.expr))
    assert evaluator.evaluate_query(nnf, collection) == reference
    assert evaluator.evaluate_query(no_forall, collection) == reference


@settings(max_examples=50, deadline=None)
@given(collections(), predicate_free_queries())
def test_theorem4_bool_construction_agrees_with_the_calculus(collection, query):
    reference = CalculusEvaluator().evaluate_query(query, collection)
    bool_query = calculus_to_bool(query, TOKENS)
    engine = BoolEngine(InvertedIndex(collection))
    assert engine.evaluate(bool_query) == reference


class BruteCalculusEvaluator(CalculusEvaluator):
    """The literal semantics: every quantifier ranges over ``Positions(n)``."""

    def _eval_quantifier(self, expr, node, bindings, existential):
        outer = dict(bindings)
        try:
            for position in node.positions():
                bindings[expr.var] = position
                if self._eval(expr.operand, node, bindings) == existential:
                    return existential
            return not existential
        finally:
            bindings.clear()
            bindings.update(outer)


PREDICATES = [
    ("distance", 1), ("ordered", 0), ("samepara", 0), ("diffpos", 0),
    ("not_distance", 1), ("not_ordered", 0),
]


@st.composite
def formulas(draw, bound: tuple = (), depth: int = 3) -> c.CalculusExpr:
    """Formulas over the full grammar whose free variables lie in ``bound``.

    Quantifiers may rebind a variable already in scope, and a quantifier
    body often joins a ``hasToken`` atom on some variable in scope by ``AND``
    (the narrowed shape), ``OR`` or ``AND NOT`` (near misses that must keep
    the full domain).
    """
    if depth == 0 or (bound and draw(st.integers(0, 3)) == 0):
        if not bound:
            var = draw(st.sampled_from(VARIABLES))
            return c.Exists(var, c.HasToken(var, draw(st.sampled_from(TOKENS))))
        var = draw(st.sampled_from(bound))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return c.HasToken(var, draw(st.sampled_from(TOKENS)))
        if kind == 1:
            return c.HasPos(var)
        name, constants = draw(st.sampled_from(PREDICATES))
        other = draw(st.sampled_from(bound))
        limit = tuple(draw(st.integers(0, 3)) for _ in range(constants))
        return c.PredicateApplication(name, (var, other), limit)
    kind = draw(st.sampled_from(["exists", "forall", "not", "and", "or"]))
    if kind in ("exists", "forall"):
        var = draw(st.sampled_from(VARIABLES))
        scope = bound if var in bound else bound + (var,)
        body = draw(formulas(scope, depth - 1))
        if draw(st.booleans()):
            token = c.HasToken(draw(st.sampled_from(scope)), draw(st.sampled_from(TOKENS)))
            join = draw(st.sampled_from([c.And, c.Or, lambda a, b: c.And(c.Not(a), b)]))
            body = join(token, body) if draw(st.booleans()) else join(body, token)
        return (c.Exists if kind == "exists" else c.Forall)(var, body)
    if kind == "not":
        return c.Not(draw(formulas(bound, depth - 1)))
    left, right = draw(formulas(bound, depth - 1)), draw(formulas(bound, depth - 1))
    return c.And(left, right) if kind == "and" else c.Or(left, right)


@settings(max_examples=300, deadline=None)
@given(collections(), formulas())
def test_narrowed_exists_domains_equal_the_brute_quantifier_loop(collection, expr):
    query = CalculusQuery(expr)
    assert CalculusEvaluator().evaluate_query(
        query, collection
    ) == BruteCalculusEvaluator().evaluate_query(query, collection)
