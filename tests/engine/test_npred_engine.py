"""Tests for the NPRED engine (one merge per block, ordering trials per node)."""

from __future__ import annotations

import pytest

from repro.corpus import Collection, ContextNode
from repro.corpus.synthetic import generate_inex_like_collection
import functools

from repro.engine.npred_engine import NPredEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.engine.operators import (
    BlockOperator,
    BoundPredicate,
    NodeDifferenceOperator,
    NodeUnionOperator,
    ScanOperator,
)
from repro.engine.plan import BlockPlan, extract_plan
from repro.engine.ppred_engine import PPredEngine
from repro.exceptions import UnsupportedQueryError
from repro.index import InvertedIndex
from repro.index.cursor import FAST_MODE, PAPER_MODE
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.predicates import Polarity, default_registry

_PARSER = QueryParser(LanguageLevel.COMP)


@pytest.fixture(scope="module")
def index() -> InvertedIndex:
    collection = Collection.from_nodes(
        [
            # 'a' and 'b' adjacent only
            ContextNode.from_tokens(0, ["a", "b", "x", "x"]),
            # 'a' and 'b' adjacent AND far apart
            ContextNode.from_tokens(1, ["a", "b", "x", "x", "x", "x", "x", "a"]),
            # far apart only (b before a)
            ContextNode.from_tokens(2, ["b", "x", "x", "x", "x", "x", "a"]),
            # only one of the tokens
            ContextNode.from_tokens(3, ["a", "x"]),
            # both tokens, b after a, gap of 2
            ContextNode.from_tokens(4, ["a", "x", "x", "b"]),
        ]
    )
    return InvertedIndex(collection)


@pytest.fixture(scope="module")
def engine(index) -> NPredEngine:
    return NPredEngine(index)


def evaluate(engine: NPredEngine, text: str) -> list[int]:
    return engine.evaluate(_PARSER.parse_closed(text))


NOT_DISTANCE_QUERY = (
    "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_distance(p1, p2, 3))"
)


def test_not_distance_finds_far_apart_occurrences(engine):
    # Nodes 1 and 2 have an 'a'/'b' pair separated by more than 3 tokens.
    assert evaluate(engine, NOT_DISTANCE_QUERY) == [1, 2]


def test_not_distance_requires_both_tokens(engine):
    assert 3 not in evaluate(engine, NOT_DISTANCE_QUERY)


def test_not_ordered(engine):
    # not_ordered(p1, p2): 'a' does NOT occur strictly before 'b'.
    result = evaluate(
        engine, "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_ordered(p1, p2))"
    )
    # node 1: a@7 after b@1 -> yes; node 2: a@6 after b@0 -> yes.
    assert result == [1, 2]


def test_diffpos_two_occurrences_of_same_token(engine):
    result = evaluate(
        engine, "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'a' AND diffpos(p1, p2))"
    )
    assert result == [1]


def test_mixed_positive_and_negative_predicates(engine):
    # 'a' before 'b' (positive) but more than 1 token apart (negative).
    result = evaluate(
        engine,
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1, p2) "
        "AND not_distance(p1, p2, 1))",
    )
    assert result == [4]


def test_positive_only_queries_still_work(engine):
    result = evaluate(
        engine,
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND distance(p1, p2, 0))",
    )
    assert result == [0, 1]


def test_and_not_closed_subquery(engine):
    result = evaluate(engine, NOT_DISTANCE_QUERY + " AND NOT 'x'")
    assert result == []


def test_union_of_blocks(engine):
    result = evaluate(engine, NOT_DISTANCE_QUERY + " OR 'b'")
    assert result == [0, 1, 2, 4]


#: Three-variable blocks with several orderings: negatives on two variables
#: (2 orderings under ``orders="minimal"``, 6 under ``"all"``) or on all
#: three, a closed ``OR`` conjunct, and ``AND NOT``.
ORDERS_QUERIES = [
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'usability' AND p2 HAS 'software' "
    "AND p3 HAS 'testing' AND not_distance(p1, p2, 5) AND ordered(p1, p3))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'usability' AND p2 HAS 'software' "
    "AND p3 HAS 'testing' AND not_distance(p1, p2, 5) AND not_ordered(p2, p3))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'usability' AND p2 HAS 'software' "
    "AND p3 HAS 'testing' AND not_distance(p1, p2, 5) "
    "AND ('efficient' OR 'interface'))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'usability' AND p2 HAS 'software' "
    "AND p3 HAS 'efficient' AND not_ordered(p1, p2)) AND NOT 'interface'",
]


@pytest.fixture(scope="module")
def inex_index() -> InvertedIndex:
    return InvertedIndex(
        generate_inex_like_collection(
            num_nodes=200, tokens_per_node=40, pos_per_entry=3, document_frequency=0.5
        )
    )


class PerOrderingEngine(NPredEngine):
    """The paper's per-thread algorithm (Section 5.6), rebuilt from the
    production block operator: every ordering merges the block on its own
    cursors, and the answers are unioned."""

    def _build_block(self, block, factory):
        bound = [
            BoundPredicate(
                self.registry.get(spec.name),
                tuple(block.attribute_of(var) for var in spec.variables),
                spec.constants,
            )
            for spec in block.predicates
        ]
        threads = []
        for ordering in self._orderings(block, bound):
            scans = [
                ScanOperator(self.index.open_cursor(token, factory))
                for _, token in block.bindings
            ]
            closed = [self.build_operator(c, factory) for c in block.closed_conjuncts]
            merge = self._build_merge(block, scans, scans + closed)
            threads.append(BlockOperator(scans, bound, [ordering], merge))
        tree = functools.reduce(NodeUnionOperator, threads)
        for negated in block.negated:
            tree = NodeDifferenceOperator(tree, self.build_operator(negated, factory))
        return tree


def without_negative_predicates(plan: BlockPlan) -> BlockPlan:
    registry = default_registry()
    return BlockPlan(
        bindings=plan.bindings,
        predicates=[
            spec
            for spec in plan.predicates
            if registry.polarity_of(spec.name) is not Polarity.NEGATIVE
        ],
        negated=plan.negated,
        closed_conjuncts=plan.closed_conjuncts,
    )


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_all_orders_and_minimal_orders_agree(index, inex_index, mode):
    """Both order sets give the same answer for the same cursor work (one
    merge per block), and that answer is the union of the per-ordering
    threads, whose cursor work bounds the shared merge's from above.

    The orderings move only position pointers, so on a single block without
    ``AND NOT`` the cursor work is exactly that of the same block with its
    negative predicates removed -- PPRED's work for that block."""
    cases = [(inex_index, text) for text in ORDERS_QUERIES] + [
        (index, NOT_DISTANCE_QUERY),
        (index, "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_ordered(p1, p2))"),
        (
            index,
            "SOME p1 SOME p2 SOME p3 (p1 HAS 'a' AND p2 HAS 'b' AND p3 HAS 'x' "
            "AND not_distance(p1, p2, 2) AND ordered(p1, p3))",
        ),
    ]
    single_blocks = 0
    for case_index, text in cases:
        query = _PARSER.parse_closed(text)
        runs = {}
        for orders in ("minimal", "all"):
            for engine_class in (NPredEngine, PerOrderingEngine):
                engine = engine_class(case_index, orders=orders, access_mode=mode)
                nodes, stats = engine.evaluate_with_stats(query)
                runs[engine_class, orders] = nodes, stats.as_extended_dict()
        shared, shared_stats = runs[NPredEngine, "minimal"]
        assert runs[NPredEngine, "all"] == (shared, shared_stats), text
        for orders in ("minimal", "all"):
            threads, thread_stats = runs[PerOrderingEngine, orders]
            assert threads == shared, text
            assert all(
                shared_stats[name] <= count for name, count in thread_stats.items()
            ), text
        plan = extract_plan(query)
        if isinstance(plan, BlockPlan) and not plan.negated:
            single_blocks += 1
            stripped = without_negative_predicates(plan)
            for engine_class in (NPredEngine, PPredEngine):
                engine = engine_class(case_index, access_mode=mode)
                _, stats = engine.evaluate_with_stats(query, plan=stripped)
                assert stats.as_extended_dict() == shared_stats, text
    # Three-variable blocks, a closed OR conjunct and two-variable blocks.
    assert single_blocks == 6


def test_agrees_with_naive_comp_engine(index):
    npred = NPredEngine(index)
    comp = NaiveCompEngine(index)
    for text in [
        NOT_DISTANCE_QUERY,
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_ordered(p1, p2))",
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'a' AND diffpos(p1, p2))",
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND ordered(p1, p2) "
        "AND not_distance(p1, p2, 1))",
    ]:
        query = _PARSER.parse_closed(text)
        assert npred.evaluate(query) == comp.evaluate(query)


def test_invalid_orders_value_rejected(index):
    with pytest.raises(Exception):
        NPredEngine(index, orders="bogus")


def test_rejects_general_predicates(index):
    from repro.model.predicates import FunctionPredicate, PredicateRegistry, default_registry

    registry = default_registry().copy()
    registry.register(FunctionPredicate("weird", 2, lambda p, c: True))
    engine = NPredEngine(index, registry)
    query = QueryParser(LanguageLevel.COMP, registry).parse_closed(
        "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND weird(p1, p2))"
    )
    with pytest.raises(UnsupportedQueryError):
        engine.evaluate(query)
