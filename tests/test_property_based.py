"""Property-based tests (hypothesis) for the core invariants.

Three families of properties:

* tokenizer/corpus invariants (offsets dense and increasing, structure
  ordinals monotone);
* inverted-index invariants (the index is a lossless re-arrangement of the
  collection);
* algebra/relational invariants (set-operation algebraic laws, join vs
  intersection).

Engine-vs-calculus equivalence lives in ``tests/equivalence``.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.corpus import Collection, ContextNode
from repro.index import InvertedIndex
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


