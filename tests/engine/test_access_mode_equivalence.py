"""Access-mode contract tests: paper-mode cost accounting and fast-mode
result equivalence.

The paper-mode guard pins the exact ``CursorStats`` counters of the seed
(pre-columnar) implementation on a fixed synthetic workload -- the Figure
3--8 benchmarks report these counters, so any change here is a break of the
cost-model contract, not a refactoring detail.  The numbers were captured by
running the original sequential implementation on this exact workload.  The
fast-mode guard does the same for all five counters of the seek-charging
path, so a faster cursor kernel must still do the same logical work.
"""

from __future__ import annotations

import pytest

from repro.bench.workload import bool_query, workload_queries
from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS, generate_inex_like_collection
from repro.engine.bool_engine import BoolEngine
from repro.engine.npred_engine import NPredEngine
from repro.engine.operators import (
    ScanOperator,
    ZigZagJoinOperator,
    collect_nodes,
    rarest_first_order,
    zigzag_node_intersect,
)
from repro.engine.ppred_engine import PPredEngine
from repro.index import InvertedIndex
from repro.index.cursor import FAST_MODE, CursorFactory
from repro.index.postings import PostingList
from repro.model.positions import Position

#: The fixed guard workload: deterministic synthetic corpus + query shapes.
GUARD_NODES = 120
GUARD_TOKENS_PER_NODE = 60
GUARD_POS_PER_ENTRY = 3

#: (engine, series) -> (match count, seed CursorStats.as_dict()).  Captured
#: from the seed implementation; see the module docstring.
SEED_COUNTS = {
    ("bool", "BOOL"): (
        29,
        {"next_entry_calls": 241, "get_positions_calls": 0, "positions_returned": 0},
    ),
    ("ppred", "BOOL"): (
        29,
        {"next_entry_calls": 239, "get_positions_calls": 238, "positions_returned": 714},
    ),
    ("ppred", "POSITIVE"): (
        27,
        {"next_entry_calls": 239, "get_positions_calls": 238, "positions_returned": 714},
    ),
    ("npred", "BOOL"): (
        29,
        {"next_entry_calls": 237, "get_positions_calls": 236, "positions_returned": 708},
    ),
    ("npred", "POSITIVE"): (
        27,
        {"next_entry_calls": 237, "get_positions_calls": 236, "positions_returned": 708},
    ),
    ("npred", "NEGATIVE"): (
        28,
        {"next_entry_calls": 1422, "get_positions_calls": 1416, "positions_returned": 4248},
    ),
}

#: (engine, series) -> fast-mode ``CursorStats.as_extended_dict()``, captured
#: at commit d310cbb (before the fused cursor calls) on the same workload.
#: Result counts are the paper-mode ones above.  A change here means the
#: fast path does different logical work, not that it got faster.
FAST_SEED_COUNTS = {
    ("bool", "BOOL"): {
        "next_entry_calls": 241, "get_positions_calls": 0, "positions_returned": 0,
        "seek_calls": 0, "seek_probes": 0,
    },
    ("ppred", "BOOL"): {
        "next_entry_calls": 30, "get_positions_calls": 152, "positions_returned": 456,
        "seek_calls": 123, "seek_probes": 341,
    },
    ("ppred", "POSITIVE"): {
        "next_entry_calls": 30, "get_positions_calls": 152, "positions_returned": 456,
        "seek_calls": 123, "seek_probes": 341,
    },
    ("npred", "BOOL"): {
        "next_entry_calls": 88, "get_positions_calls": 180, "positions_returned": 540,
        "seek_calls": 93, "seek_probes": 257,
    },
    ("npred", "POSITIVE"): {
        "next_entry_calls": 88, "get_positions_calls": 180, "positions_returned": 540,
        "seek_calls": 93, "seek_probes": 257,
    },
    ("npred", "NEGATIVE"): {
        "next_entry_calls": 528, "get_positions_calls": 1080, "positions_returned": 3240,
        "seek_calls": 558, "seek_probes": 1542,
    },
}

ENGINES = {"bool": BoolEngine, "ppred": PPredEngine, "npred": NPredEngine}


@pytest.fixture(scope="module")
def guard_index() -> InvertedIndex:
    collection = generate_inex_like_collection(
        num_nodes=GUARD_NODES,
        tokens_per_node=GUARD_TOKENS_PER_NODE,
        pos_per_entry=GUARD_POS_PER_ENTRY,
    )
    return InvertedIndex(collection)


@pytest.fixture(scope="module")
def guard_queries():
    return workload_queries(list(DEFAULT_QUERY_TOKENS)[:3], 3, 2)


@pytest.mark.parametrize("engine_name,series", sorted(SEED_COUNTS))
def test_paper_mode_stats_match_the_seed_implementation(
    guard_index, guard_queries, engine_name, series
):
    expected_matches, expected_stats = SEED_COUNTS[(engine_name, series)]
    engine = ENGINES[engine_name](guard_index)
    nodes, stats = engine.evaluate_with_stats(guard_queries[series])
    assert len(nodes) == expected_matches
    assert stats.as_dict() == expected_stats
    # Paper mode never charges seeks.
    assert stats.seek_calls == 0
    assert stats.seek_probes == 0


@pytest.mark.parametrize("engine_name,series", sorted(FAST_SEED_COUNTS))
def test_fast_mode_stats_match_the_golden_counts(
    guard_index, guard_queries, engine_name, series
):
    engine = ENGINES[engine_name](guard_index, access_mode=FAST_MODE)
    nodes, stats = engine.evaluate_with_stats(guard_queries[series])
    assert len(nodes) == SEED_COUNTS[(engine_name, series)][0]
    assert stats.as_extended_dict() == FAST_SEED_COUNTS[(engine_name, series)]


@pytest.mark.parametrize("engine_name,series", sorted(SEED_COUNTS))
def test_fast_mode_results_equal_paper_mode(
    guard_index, guard_queries, engine_name, series
):
    query = guard_queries[series]
    paper = ENGINES[engine_name](guard_index).evaluate(query)
    fast = ENGINES[engine_name](guard_index, access_mode=FAST_MODE).evaluate(query)
    assert fast == paper


def test_fast_mode_charges_fewer_sequential_reads(guard_index, guard_queries):
    """On an intersection workload the fast mode replaces most next_entry
    charges with logarithmic seeks."""
    query = guard_queries["POSITIVE"]
    _, paper_stats = PPredEngine(guard_index).evaluate_with_stats(query)
    _, fast_stats = PPredEngine(
        guard_index, access_mode=FAST_MODE
    ).evaluate_with_stats(query)
    assert fast_stats.next_entry_calls < paper_stats.next_entry_calls
    assert fast_stats.seek_calls > 0


def test_fast_mode_bool_zigzag_on_asymmetric_lists(guard_index):
    """A rare AND common conjunction engages the zig-zag (seeks charged)."""
    rare = min(guard_index.tokens(), key=guard_index.document_frequency)
    common = max(guard_index.tokens(), key=guard_index.document_frequency)
    if guard_index.document_frequency(rare) == 0:  # pragma: no cover - guard
        pytest.skip("degenerate synthetic corpus")
    query = bool_query([rare, common])
    paper_engine = BoolEngine(guard_index)
    fast_engine = BoolEngine(guard_index, access_mode=FAST_MODE)
    paper_nodes, _ = paper_engine.evaluate_with_stats(query)
    fast_nodes, fast_stats = fast_engine.evaluate_with_stats(query)
    assert fast_nodes == paper_nodes
    if guard_index.document_frequency(rare) * BoolEngine.ZIGZAG_SELECTIVITY_RATIO <= (
        guard_index.document_frequency(common)
    ):
        assert fast_stats.seek_calls > 0


# ------------------------------------------------------------ merge primitives
def tok_list(token: str, *node_ids: int) -> PostingList:
    posting_list = PostingList(token)
    for node_id in node_ids:
        posting_list.add_occurrences(node_id, (Position(0),))
    return posting_list


def test_zigzag_node_intersect_matches_set_intersection():
    lists = [
        tok_list("a", 1, 2, 4, 6, 9, 12, 40),
        tok_list("b", 2, 4, 5, 9, 40, 41),
        tok_list("c", 0, 2, 9, 10, 40),
    ]
    factory = CursorFactory(mode=FAST_MODE)
    cursors = [factory.open(posting_list) for posting_list in lists]
    expected = sorted(
        set(lists[0].node_ids()) & set(lists[1].node_ids()) & set(lists[2].node_ids())
    )
    assert zigzag_node_intersect(cursors) == expected


def test_zigzag_node_intersect_empty_input_and_empty_list():
    assert zigzag_node_intersect([]) == []
    factory = CursorFactory(mode=FAST_MODE)
    cursors = [factory.open(tok_list("a", 1, 2)), factory.open(PostingList("b"))]
    assert zigzag_node_intersect(cursors) == []


def test_zigzag_join_operator_matches_pairwise_join(guard_index):
    tokens = list(DEFAULT_QUERY_TOKENS)[:3]
    factory = CursorFactory(mode=FAST_MODE)
    scans = [ScanOperator(guard_index.open_cursor(token, factory)) for token in tokens]
    operator = ZigZagJoinOperator(scans, merge_order=rarest_first_order(scans))
    assert operator.arity == 3

    reference_factory = CursorFactory()
    from repro.engine.operators import JoinOperator

    ref_scans = [
        ScanOperator(guard_index.open_cursor(token, reference_factory))
        for token in tokens
    ]
    reference = JoinOperator(JoinOperator(ref_scans[0], ref_scans[1]), ref_scans[2])
    assert collect_nodes(operator) == collect_nodes(reference)


def test_rarest_first_order_sorts_by_list_length(guard_index):
    factory = CursorFactory(mode=FAST_MODE)
    tokens = list(DEFAULT_QUERY_TOKENS)[:3]
    scans = [ScanOperator(guard_index.open_cursor(token, factory)) for token in tokens]
    order = rarest_first_order(scans)
    counts = [scans[index].entry_count() for index in order]
    assert counts == sorted(counts)
