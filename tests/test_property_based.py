"""Property-based tests (hypothesis) for the core invariants.

Four families of properties:

* tokenizer/corpus invariants (offsets dense and increasing, structure
  ordinals monotone);
* inverted-index invariants (the index is a lossless re-arrangement of the
  collection);
* algebra/relational invariants (set-operation algebraic laws, join vs
  intersection);
* **engine equivalence**: for randomly generated small collections and
  randomly generated queries from the PPRED/NPRED/BOOL fragments, every
  applicable engine returns exactly the node set computed by the reference
  calculus evaluator -- the PPRED/NPRED engines in both cursor access modes,
  with two and with three position variables.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import Collection, ContextNode
from repro.engine.bool_engine import BoolEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.engine.npred_engine import NPredEngine
from repro.engine.ppred_engine import PPredEngine
from repro.index import InvertedIndex
from repro.index.cursor import ACCESS_MODES
from repro.languages import ast
from repro.languages.classify import LanguageClass, classify_query
from repro.model.calculus import CalculusEvaluator
from repro.model.relations import FullTextRelation
from repro.model.positions import Position

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------
TOKENS = ["a", "b", "c", "d"]

token_strategy = st.sampled_from(TOKENS)

documents = st.lists(token_strategy, min_size=0, max_size=12)


@st.composite
def collections(draw, min_nodes: int = 1, max_nodes: int = 6) -> Collection:
    docs = draw(st.lists(documents, min_size=min_nodes, max_size=max_nodes))
    nodes = [
        ContextNode.from_tokens(
            idx, tokens, sentence_length=3, paragraph_length=5
        )
        for idx, tokens in enumerate(docs)
    ]
    return Collection.from_nodes(nodes)


@st.composite
def bool_queries(draw, depth: int = 2) -> ast.QueryNode:
    if depth == 0:
        return ast.TokenQuery(draw(token_strategy))
    choice = draw(st.integers(0, 4))
    if choice == 0:
        return ast.TokenQuery(draw(token_strategy))
    if choice == 1:
        return ast.AnyQuery()
    if choice == 2:
        return ast.NotQuery(draw(bool_queries(depth=depth - 1)))
    left = draw(bool_queries(depth=depth - 1))
    right = draw(bool_queries(depth=depth - 1))
    return ast.AndQuery(left, right) if choice == 3 else ast.OrQuery(left, right)


POSITIVE_PREDICATES = [("distance", (2,)), ("ordered", ()), ("samepara", ()),
                       ("samesentence", ()), ("samepos", ())]
NEGATIVE_PREDICATES = [("not_distance", (1,)), ("not_ordered", ()),
                       ("not_samepara", ()), ("diffpos", ())]


@st.composite
def predicate_queries(draw, kinds) -> ast.QueryNode:
    """SOME p1 SOME p2 (p1 HAS t1 AND p2 HAS t2 AND pred(p1, p2) [AND pred2])."""
    first = draw(token_strategy)
    second = draw(token_strategy)
    predicates = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=2))
    body: ast.QueryNode = ast.AndQuery(
        ast.VarHasToken("p1", first), ast.VarHasToken("p2", second)
    )
    for name, constants in predicates:
        body = ast.AndQuery(body, ast.PredQuery(name, ("p1", "p2"), constants))
    return ast.SomeQuery("p1", ast.SomeQuery("p2", body))


VARIABLES = ("p1", "p2", "p3")


@st.composite
def three_variable_queries(draw) -> ast.QueryNode:
    """SOME p1 SOME p2 SOME p3 (p1 HAS t1 AND p2 HAS t2 AND p3 HAS t3 AND
    1-3 positive/negative predicates over pairs of p1..p3)."""
    body: ast.QueryNode = ast.AndQuery(
        ast.AndQuery(
            ast.VarHasToken("p1", draw(token_strategy)),
            ast.VarHasToken("p2", draw(token_strategy)),
        ),
        ast.VarHasToken("p3", draw(token_strategy)),
    )
    predicates = draw(
        st.lists(
            st.sampled_from(NEGATIVE_PREDICATES + POSITIVE_PREDICATES),
            min_size=1,
            max_size=3,
        )
    )
    for name, constants in predicates:
        pair = tuple(draw(st.permutations(VARIABLES))[:2])
        body = ast.AndQuery(body, ast.PredQuery(name, pair, constants))
    for variable in reversed(VARIABLES):
        body = ast.SomeQuery(variable, body)
    return body


# --------------------------------------------------------------------------
# Corpus / index invariants
# --------------------------------------------------------------------------
@given(documents)
def test_from_tokens_offsets_are_dense_and_structure_monotone(tokens):
    node = ContextNode.from_tokens(0, tokens, sentence_length=3, paragraph_length=5)
    offsets = [pos.offset for pos in node.positions()]
    assert offsets == list(range(len(tokens)))
    sentences = [pos.sentence for pos in node.positions()]
    paragraphs = [pos.paragraph for pos in node.positions()]
    assert sentences == sorted(sentences)
    assert paragraphs == sorted(paragraphs)


@given(collections())
def test_index_is_a_lossless_rearrangement_of_the_collection(collection):
    index = InvertedIndex(collection)
    index.validate()
    # Sum of posting-list sizes equals the number of token occurrences.
    assert sum(pl.total_positions() for pl in index.posting_lists()) == (
        collection.total_token_count()
    )
    # Document frequencies agree with the collection.
    for token in collection.vocabulary():
        assert index.document_frequency(token) == collection.document_frequency(token)


@given(collections())
def test_statistics_complexity_parameters_bound_the_data(collection):
    stats = InvertedIndex(collection).statistics
    params = stats.complexity_parameters()
    assert params.cnodes == len(collection)
    assert params.pos_per_entry <= params.pos_per_cnode
    assert params.entries_per_token <= params.cnodes


# --------------------------------------------------------------------------
# Relational invariants
# --------------------------------------------------------------------------
rows_strategy = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 6).map(Position)),
    min_size=0,
    max_size=12,
)


@given(rows_strategy, rows_strategy)
def test_set_operation_laws(rows_a, rows_b):
    left = FullTextRelation.from_rows(1, rows_a)
    right = FullTextRelation.from_rows(1, rows_b)
    union = set(left.union(right).rows)
    intersection = set(left.intersection(right).rows)
    difference = set(left.difference(right).rows)
    assert union == set(left.rows) | set(right.rows)
    assert intersection == set(left.rows) & set(right.rows)
    assert difference == set(left.rows) - set(right.rows)
    # Union is the disjoint union of the difference pieces and the intersection.
    assert union == difference | intersection | (set(right.rows) - set(left.rows))


@given(rows_strategy, rows_strategy)
def test_join_projected_to_nodes_is_node_intersection(rows_a, rows_b):
    left = FullTextRelation.from_rows(1, rows_a)
    right = FullTextRelation.from_rows(1, rows_b)
    joined_nodes = left.join(right).node_ids()
    assert joined_nodes == sorted(set(left.node_ids()) & set(right.node_ids()))


# --------------------------------------------------------------------------
# Engine equivalence
# --------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(collections(), bool_queries())
def test_bool_engine_matches_the_oracle(collection, query):
    index = InvertedIndex(collection)
    oracle = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    assert BoolEngine(index).evaluate(query) == oracle
    assert NaiveCompEngine(index).evaluate(query) == oracle


@pytest.mark.parametrize("mode", ACCESS_MODES)
@settings(max_examples=40, deadline=None)
@given(collections(), predicate_queries(POSITIVE_PREDICATES))
def test_ppred_engine_matches_the_oracle(mode, collection, query):
    assert classify_query(query) is LanguageClass.PPRED
    index = InvertedIndex(collection)
    oracle = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    assert PPredEngine(index, access_mode=mode).evaluate(query) == oracle
    assert NPredEngine(index, access_mode=mode).evaluate(query) == oracle
    assert NaiveCompEngine(index).evaluate(query) == oracle


@pytest.mark.parametrize("mode", ACCESS_MODES)
@settings(max_examples=40, deadline=None)
@given(collections(), predicate_queries(NEGATIVE_PREDICATES + POSITIVE_PREDICATES))
def test_npred_engine_matches_the_oracle(mode, collection, query):
    index = InvertedIndex(collection)
    oracle = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    for orders in ("minimal", "all"):
        engine = NPredEngine(index, orders=orders, access_mode=mode)
        assert engine.evaluate(query) == oracle
    assert NaiveCompEngine(index).evaluate(query) == oracle


@pytest.mark.parametrize("mode", ACCESS_MODES)
@settings(max_examples=40, deadline=None)
@given(collections(max_nodes=8), three_variable_queries())
def test_three_variable_queries_match_the_oracle(mode, collection, query):
    index = InvertedIndex(collection)
    oracle = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    for orders in ("minimal", "all"):
        engine = NPredEngine(index, orders=orders, access_mode=mode)
        assert engine.evaluate(query) == oracle
    if classify_query(query) is LanguageClass.PPRED:
        assert PPredEngine(index, access_mode=mode).evaluate(query) == oracle
