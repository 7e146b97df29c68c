"""Tests for the pipelined plan operators (Algorithms 1-5).

Selection and projection (Algorithms 2-3) run fused in the block operator;
its ordering trials are tested in ``test_npred_block_operator.py``.
"""

from __future__ import annotations

import pytest

from repro.corpus import Collection, ContextNode
from repro.exceptions import EvaluationError
from repro.index import InvertedIndex
from repro.engine.operators import (
    BlockOperator,
    BoundPredicate,
    JoinOperator,
    NodeDifferenceOperator,
    NodeUnionOperator,
    ScanOperator,
    collect_nodes,
)
from repro.model.predicates import DistancePredicate, OrderedPredicate


@pytest.fixture
def index() -> InvertedIndex:
    collection = Collection.from_nodes(
        [
            ContextNode.from_tokens(0, ["a", "x", "b", "x", "a"]),
            ContextNode.from_tokens(1, ["b", "b", "b"]),
            ContextNode.from_tokens(2, ["a", "y", "y", "y", "b"]),
            ContextNode.from_tokens(3, ["c"]),
            ContextNode.from_tokens(4, ["a"]),
        ]
    )
    return InvertedIndex(collection)


def scan(index: InvertedIndex, token: str) -> ScanOperator:
    return ScanOperator(index.open_cursor(token))


# --------------------------------------------------------------------------
# Scan
# --------------------------------------------------------------------------
def test_scan_iterates_nodes_and_positions(index):
    operator = scan(index, "a")
    assert operator.advance_node() == 0
    assert operator.position().offset == 0
    assert operator.advance_position(1)
    assert operator.position().offset == 4
    assert not operator.advance_position(5)
    assert operator.advance_node() == 2
    assert operator.position().offset == 0
    assert operator.advance_node() == 4
    assert operator.advance_node() is None


def test_scan_advance_position_is_inclusive(index):
    operator = scan(index, "a")
    operator.advance_node()
    assert operator.advance_position(4)
    assert operator.position().offset == 4
    # already at >= 4: no movement needed
    assert operator.advance_position(4)
    assert operator.position().offset == 4
    operator.rewind_positions()
    assert operator.position().offset == 0


def test_scan_position_errors_when_not_positioned(index):
    operator = scan(index, "a")
    with pytest.raises(EvaluationError):
        operator.position()


def test_scan_of_missing_token_is_empty(index):
    operator = scan(index, "zzz")
    assert operator.advance_node() is None
    assert collect_nodes(operator) == []


# --------------------------------------------------------------------------
# Join
# --------------------------------------------------------------------------
def test_join_merges_on_node_ids(index):
    join = JoinOperator(scan(index, "a"), scan(index, "b"))
    assert collect_nodes(join) == [0, 2]


def test_join_leaves_its_scans_on_the_nodes_first_positions(index):
    """The block operator's first trial relies on this: no rewind needed."""
    left, right = scan(index, "a"), scan(index, "b")
    join = JoinOperator(left, right)
    assert join.advance_node() == 0
    assert left.position().offset == 0
    assert right.position().offset == 2
    assert left.advance_position(1)
    assert join.advance_node() == 2
    assert left.position().offset == 0
    assert right.position().offset == 4


def test_join_advance_position_failure_is_reported(index):
    left, right = scan(index, "a"), scan(index, "b")
    join = JoinOperator(left, right)
    join.advance_node()
    assert not right.advance_position(3)  # 'b' has no position >= 3 in node 0
    assert left.advance_position(4)       # 'a' does have offset 4


def test_join_with_empty_side_is_empty(index):
    join = JoinOperator(scan(index, "a"), scan(index, "zzz"))
    assert collect_nodes(join) == []


def test_nested_joins_merge_every_input(index):
    join = JoinOperator(
        JoinOperator(scan(index, "a"), scan(index, "b")), scan(index, "x")
    )
    assert collect_nodes(join) == [0]


# --------------------------------------------------------------------------
# Select / project (fused in the block operator)
# --------------------------------------------------------------------------
def block(index, tokens, predicates) -> BlockOperator:
    """PPRED's shape: a left-deep join of the token scans, one empty ordering."""
    scans = [scan(index, token) for token in tokens]
    merge = scans[0]
    for right in scans[1:]:
        merge = JoinOperator(merge, right)
    return BlockOperator(scans, predicates, [()], merge)


def test_select_with_distance_predicate(index):
    select = block(index, ("a", "b"), [BoundPredicate(DistancePredicate(), (0, 1), (1,))])
    # node 0: a@0,b@2 -> 1 intervening token -> ok.
    # node 2: a@0,b@4 -> 3 intervening tokens -> fails.
    assert collect_nodes(select) == [0]


def test_select_with_ordered_predicate(index):
    select = block(index, ("b", "a"), [BoundPredicate(OrderedPredicate(), (0, 1))])
    # node 0: b@2 before a@4 -> ok; node 2: b@4 after every a -> fails.
    assert collect_nodes(select) == [0]


def test_stacked_selects_pipeline_correctly(index):
    close = block(
        index,
        ("a", "b"),
        [
            BoundPredicate(OrderedPredicate(), (0, 1)),
            BoundPredicate(DistancePredicate(), (0, 1), (1,)),
        ],
    )
    assert collect_nodes(close) == [0]


def test_select_attribute_validation(index):
    with pytest.raises(EvaluationError):
        block(index, ("a", "b"), [BoundPredicate(OrderedPredicate(), (0, 5))])
    with pytest.raises(EvaluationError):
        block(index, ("a", "b"), [BoundPredicate(OrderedPredicate(), (-1, 0))])


def test_project_to_node_level(index):
    """Without predicates the block projects the merge to node ids, each
    once, even when more than one ordering trial would succeed."""
    scans = [scan(index, token) for token in ("a", "b")]
    project = BlockOperator(scans, [], [(0, 1), (1, 0)], JoinOperator(*scans))
    assert collect_nodes(project) == [0, 2]


# --------------------------------------------------------------------------
# Union / difference
# --------------------------------------------------------------------------
def test_node_union(index):
    union = NodeUnionOperator(scan(index, "a"), scan(index, "c"))
    assert collect_nodes(union) == [0, 2, 3, 4]


def test_node_union_deduplicates_common_nodes(index):
    union = NodeUnionOperator(scan(index, "a"), scan(index, "b"))
    assert collect_nodes(union) == [0, 1, 2, 4]


def test_node_difference(index):
    difference = NodeDifferenceOperator(scan(index, "a"), scan(index, "b"))
    assert collect_nodes(difference) == [4]


def test_node_difference_with_empty_right_side(index):
    difference = NodeDifferenceOperator(scan(index, "a"), scan(index, "zzz"))
    assert collect_nodes(difference) == [0, 2, 4]
