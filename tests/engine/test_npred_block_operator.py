"""Direct unit tests of the block operator (one merge, ordering trials per node)."""

from __future__ import annotations

import pytest

from repro.corpus import Collection, ContextNode
from repro.engine.operators import (
    BlockOperator,
    BoundPredicate,
    JoinOperator,
    NodeUnionOperator,
    ScanOperator,
    ZigZagJoinOperator,
    collect_nodes,
)
from repro.exceptions import EvaluationError
from repro.index import InvertedIndex
from repro.index.cursor import FAST_MODE, PAPER_MODE, CursorFactory
from repro.model.predicates import (
    DistancePredicate,
    NotDistancePredicate,
    OrderedPredicate,
    Polarity,
    Predicate,
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


def block(index, predicates, orderings, tokens=("a", "b")) -> BlockOperator:
    """A block over one scan per token, merged by a left-deep join chain."""
    scans = [ScanOperator(index.open_cursor(token)) for token in tokens]
    merge = scans[0]
    for scan in scans[1:]:
        merge = JoinOperator(merge, scan)
    return BlockOperator(scans, predicates, orderings, merge)


NOT_DISTANCE = [BoundPredicate(NotDistancePredicate(), (0, 1), (3,))]


def test_block_without_predicates_is_a_node_merge(index):
    assert collect_nodes(block(index, [], [()])) == [0, 1, 2]


def test_single_ordering_misses_the_other_direction(index):
    """Documents why several orderings are needed: one order finds only the
    solutions compatible with it."""
    assert collect_nodes(block(index, NOT_DISTANCE, [(0, 1)])) == [1]
    assert collect_nodes(block(index, NOT_DISTANCE, [(1, 0)])) == [2]


def test_negative_predicate_with_both_orderings_covers_all_solutions(index):
    """Node 2 is accepted only by the second ordering, after the first one
    has moved b's position pointer past its last position: the second trial
    must start again from the node's first positions."""
    orderings = [(0, 1), (1, 0)]
    assert collect_nodes(block(index, NOT_DISTANCE, orderings)) == [1, 2]
    per_ordering = set()
    for ordering in orderings:
        per_ordering.update(collect_nodes(block(index, NOT_DISTANCE, [ordering])))
    assert sorted(per_ordering) == [1, 2]


def test_positive_predicates_are_supported_inside_the_block(index):
    bound = [
        BoundPredicate(OrderedPredicate(), (0, 1), ()),
        BoundPredicate(DistancePredicate(), (0, 1), (0,)),
    ]
    assert collect_nodes(block(index, bound, [()])) == [0]


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_merge_may_hold_closed_inputs_besides_the_scans(index, mode):
    """The merge aligns node-level inputs the block does not read positions
    from (a closed ``OR`` conjunct here), in either merge shape."""
    factory = CursorFactory(mode=mode)
    scans = [ScanOperator(index.open_cursor(token, factory)) for token in ("a", "b")]
    closed = NodeUnionOperator(
        ScanOperator(index.open_cursor("x", factory)),
        ScanOperator(index.open_cursor("zzz", factory)),
    )
    merge = ZigZagJoinOperator(scans + [closed], merge_order=[1, 0, 2])
    operator = BlockOperator(scans, NOT_DISTANCE, [(0, 1), (1, 0)], merge)
    assert collect_nodes(operator) == [1, 2]


class _StuckPredicate(Predicate):
    """A positive predicate that never holds and never hints progress."""

    name = "stuck"
    polarity = Polarity.POSITIVE

    def holds(self, positions, constants):
        return False

    def advance_hints(self, positions, constants):
        return {0: positions[0].offset}


def test_positive_predicate_without_progressing_hint_is_an_error(index):
    """A hint that moves no scan would loop forever; the block reports it."""
    stuck = block(index, [BoundPredicate(_StuckPredicate(), (0, 1))], [()])
    with pytest.raises(EvaluationError, match="no progressing advance hint"):
        collect_nodes(stuck)


def test_constructor_validation(index):
    scan = ScanOperator(index.open_cursor("a"))
    with pytest.raises(EvaluationError):
        BlockOperator([], [], [()], scan)
    with pytest.raises(EvaluationError):
        block(index, [], [(0, 0)])
    with pytest.raises(EvaluationError):
        block(index, [], [(5,)])
    # A predicate must bind scans of the block.
    with pytest.raises(EvaluationError):
        block(index, [BoundPredicate(OrderedPredicate(), (0, 5))], [()])
    # A negative predicate must be covered by every ordering.
    with pytest.raises(EvaluationError):
        block(index, NOT_DISTANCE, [(0,)])
    with pytest.raises(EvaluationError):
        block(index, NOT_DISTANCE, [(0, 1), (1,)])
