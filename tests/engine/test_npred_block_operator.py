"""Direct unit tests of the fused NPRED block operator."""

from __future__ import annotations

import pytest

from repro.corpus import Collection, ContextNode
from repro.engine.npred_engine import NPredBlockOperator, _BoundPredicate
from repro.engine.operators import ScanOperator, collect_nodes
from repro.exceptions import EvaluationError
from repro.index import InvertedIndex
from repro.model.predicates import (
    DistancePredicate,
    NotDistancePredicate,
    OrderedPredicate,
)


@pytest.fixture
def index() -> InvertedIndex:
    collection = Collection.from_nodes(
        [
            ContextNode.from_tokens(0, ["a", "b"]),
            ContextNode.from_tokens(1, ["a", "x", "x", "x", "x", "x", "b"]),
            ContextNode.from_tokens(2, ["b", "x", "x", "x", "x", "x", "a"]),
            ContextNode.from_tokens(3, ["a"]),
        ]
    )
    return InvertedIndex(collection)


def scans(index, *tokens):
    return [ScanOperator(index.open_cursor(token)) for token in tokens]


NOT_DISTANCE = [_BoundPredicate(NotDistancePredicate(), (0, 1), (3,))]


def test_block_without_predicates_is_a_node_merge(index):
    operator = NPredBlockOperator(scans(index, "a", "b"), [], orderings=[()])
    assert collect_nodes(operator) == [0, 1, 2]


def test_single_ordering_misses_the_other_direction(index):
    """Documents why several orderings are needed: one order finds only the
    solutions compatible with it."""
    forward = NPredBlockOperator(scans(index, "a", "b"), NOT_DISTANCE, orderings=[(0, 1)])
    backward = NPredBlockOperator(scans(index, "a", "b"), NOT_DISTANCE, orderings=[(1, 0)])
    assert collect_nodes(forward) == [1]
    assert collect_nodes(backward) == [2]


def test_negative_predicate_with_both_orderings_covers_all_solutions(index):
    """Node 2 is accepted only by the second ordering, after the first one
    has moved b's position pointer past its last position: the second trial
    must start again from the node's first positions."""
    orderings = [(0, 1), (1, 0)]
    shared = NPredBlockOperator(scans(index, "a", "b"), NOT_DISTANCE, orderings)
    assert collect_nodes(shared) == [1, 2]
    per_ordering = set()
    for ordering in orderings:
        single = NPredBlockOperator(scans(index, "a", "b"), NOT_DISTANCE, [ordering])
        per_ordering.update(collect_nodes(single))
    assert sorted(per_ordering) == [1, 2]


def test_positive_predicates_are_supported_inside_the_block(index):
    bound = [
        _BoundPredicate(OrderedPredicate(), (0, 1), ()),
        _BoundPredicate(DistancePredicate(), (0, 1), (0,)),
    ]
    operator = NPredBlockOperator(scans(index, "a", "b"), bound, orderings=[()])
    assert collect_nodes(operator) == [0]


def test_constructor_validation(index):
    with pytest.raises(EvaluationError):
        NPredBlockOperator([], [], orderings=[()])
    with pytest.raises(EvaluationError):
        NPredBlockOperator(scans(index, "a", "b"), [], orderings=[(0, 0)])
    with pytest.raises(EvaluationError):
        NPredBlockOperator(scans(index, "a", "b"), [], orderings=[(5,)])
    # A negative predicate must be covered by every ordering.
    with pytest.raises(EvaluationError):
        NPredBlockOperator(scans(index, "a", "b"), NOT_DISTANCE, orderings=[(0,)])
    with pytest.raises(EvaluationError):
        NPredBlockOperator(
            scans(index, "a", "b"), NOT_DISTANCE, orderings=[(0, 1), (1,)]
        )


def test_block_is_node_level_only(index):
    operator = NPredBlockOperator(scans(index, "a", "b"), [], orderings=[()])
    with pytest.raises(EvaluationError):
        operator.advance_position(0, 1)
    with pytest.raises(EvaluationError):
        operator.position(0)
