"""Fused cursor calls charge exactly what the paper API charges.

``drain`` / ``next_positions`` / ``seek_positions`` replace per-entry Python
loops on the evaluation hot path.  They are only allowed to do so because
each one returns and charges what the equivalent paper-API step sequence
(``next_entry`` / ``seek`` / ``get_positions``) returns and charges -- the
cursor counters are the paper's cost model.  These tests drive a fused cursor
and a twin through the paper API with the same random operation stream, on
in-memory, packed (mmap) and multi-segment (tombstoned) lists in both access
modes, and compare ids, positions and all five counters after every step.

``InvertedListCursor.seek`` finds its landing with one bisection and derives
the probe charge of the adaptive linear-then-binary search it replaced; the
old search is kept here as the reference.
"""

from __future__ import annotations

import bisect
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.cursor import (
    ACCESS_MODES,
    FAST_MODE,
    CursorStats,
    InvertedListCursor,
    MultiSegmentCursor,
)
from repro.index.packed import (
    SKIP_BLOCK,
    PackedPostingList,
    build_packed_segment,
    open_packed_segment,
)
from repro.index.postings import PostingList
from repro.model.positions import Position

# ------------------------------------------------------- fused == paper API
entries = st.dictionaries(
    st.integers(0, 120),
    st.lists(st.integers(0, 30), min_size=1, max_size=3, unique=True),
    max_size=40,
)
operations = st.lists(
    st.one_of(
        st.just(("next",)),
        st.tuples(st.just("seek"), st.integers(-2, 130)),
        st.just(("drain",)),
    ),
    max_size=25,
)


def make_list(token: str, table: dict[int, list[int]]) -> PostingList:
    posting_list = PostingList(token)
    for node_id in sorted(table):
        posting_list.add_occurrences(
            node_id, [Position(offset) for offset in sorted(table[node_id])]
        )
    return posting_list


def paper_step(cursor, operation):
    """The paper-API sequence each fused call stands for."""
    if operation[0] == "drain":
        nodes = []
        node = cursor.next_entry()
        while node is not None:
            nodes.append(node)
            node = cursor.next_entry()
        return nodes
    if operation[0] == "next":
        node = cursor.next_entry()
    elif cursor.exhausted():
        return None, ()
    else:
        node = cursor.seek(operation[1])
    return node, (() if node is None else tuple(cursor.get_positions()))


def fused_step(cursor, operation):
    if operation[0] == "drain":
        return cursor.drain()
    if operation[0] == "next":
        return cursor.next_positions()
    return cursor.seek_positions(operation[1])


def assert_twins_agree(fused, paper, ops) -> None:
    for operation in ops:
        got = fused_step(fused, operation)
        expected = paper_step(paper, operation)
        assert got == expected, operation
        if operation[0] != "drain":
            assert isinstance(got[1], tuple)
        assert fused.stats.as_extended_dict() == paper.stats.as_extended_dict()
        assert fused.exhausted() == paper.exhausted()
        assert fused.current_node() == paper.current_node()


@settings(max_examples=150, deadline=None)
@given(table=entries, ops=operations, mode=st.sampled_from(ACCESS_MODES))
def test_fused_calls_equal_the_paper_api_in_memory(table, ops, mode):
    posting_list = make_list("t", table)
    assert_twins_agree(
        InvertedListCursor(posting_list, mode=mode),
        InvertedListCursor(posting_list, mode=mode),
        ops,
    )


@settings(max_examples=60, deadline=None)
@given(table=entries, ops=operations, mode=st.sampled_from(ACCESS_MODES))
def test_fused_calls_equal_the_paper_api_on_a_packed_list(table, ops, mode):
    blob = build_packed_segment({}, {"t": make_list("t", table)}, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fused.seg"
        path.write_bytes(blob)
        with open_packed_segment(path) as reader:
            packed = reader.posting_list("t")
            assert_twins_agree(
                InvertedListCursor(packed, mode=mode),
                InvertedListCursor(packed, mode=mode),
                ops,
            )


@settings(max_examples=100, deadline=None)
@given(
    table=entries,
    segment_of=st.lists(st.integers(0, 2), min_size=121, max_size=121),
    dead_ids=st.sets(st.integers(0, 120), max_size=20),
    ops=operations,
    mode=st.sampled_from(ACCESS_MODES),
)
def test_fused_calls_equal_the_paper_api_across_segments(
    table, segment_of, dead_ids, ops, mode
):
    segments = [
        make_list(
            "t", {node: table[node] for node in table if segment_of[node] == part}
        )
        for part in range(3)
    ]
    dead = dead_ids.__contains__

    def open_cursor() -> MultiSegmentCursor:
        return MultiSegmentCursor(
            [
                (InvertedListCursor(posting_list, mode=mode), dead if part else None)
                for part, posting_list in enumerate(segments)
            ],
            mode=mode,
        )

    assert_twins_agree(open_cursor(), open_cursor(), ops)


def test_drain_charges_one_call_per_entry_plus_the_end():
    posting_list = make_list("t", {1: [0], 4: [2], 9: [1]})
    cursor = InvertedListCursor(posting_list)
    assert cursor.next_positions()[0] == 1
    assert cursor.drain() == [4, 9]
    assert cursor.stats.next_entry_calls == 1 + 3
    assert cursor.drain() == []
    assert cursor.stats.next_entry_calls == 1 + 3 + 1


# ------------------------------------------- seek == linear-then-binary
def reference_seek_index(node_ids, start, node_id, stop=None, linear_limit=4):
    """The adaptive search seeks were charged for before the single bisection."""
    length = len(node_ids)
    if stop is not None and stop < length:
        length = stop
    if start >= length:
        return length, 0
    if start < 0:
        start = 0
    limit = min(start + linear_limit, length)
    index = start
    while index < limit:
        if node_ids[index] >= node_id:
            return index, index - start + 1
        index += 1
    if index >= length:
        return length, index - start
    landing = bisect.bisect_left(node_ids, node_id, index, length)
    return landing, (index - start) + (length - index).bit_length()


def fast_cursor_at(posting_list, start: int) -> InvertedListCursor:
    """A fast-mode cursor on entry ``start`` (fresh when ``start < 0``,
    exhausted at its end) with zeroed counters."""
    cursor = InvertedListCursor(posting_list, mode=FAST_MODE)
    for _ in range(start + 1):
        cursor.next_entry()
    cursor.stats = CursorStats()
    return cursor


def assert_seek_matches_reference(cursor, node_ids, start, target, stop=None):
    """``cursor`` (placed by :func:`fast_cursor_at`) lands where the
    reference search lands and is charged its probes -- or, already on an
    entry ``>= target``, stays put uncharged."""
    length = len(node_ids) if stop is None else min(stop, len(node_ids))
    node = cursor.seek(target)
    if 0 <= start < length and node_ids[start] >= target:
        assert node == node_ids[start]
        assert cursor.stats.as_extended_dict() == CursorStats().as_extended_dict()
        return
    landing, probes = reference_seek_index(node_ids, start, target, stop)
    assert node == (node_ids[landing] if landing < length else None)
    assert cursor.stats.seek_calls == 1
    assert cursor.stats.seek_probes == probes
    assert cursor.stats.as_dict() == CursorStats().as_dict()


@st.composite
def seek_cases(draw):
    node_ids = sorted(draw(st.sets(st.integers(0, 5_000), max_size=3 * SKIP_BLOCK)))
    length = len(node_ids)
    start = draw(st.integers(-2, length + 2))
    stop = draw(st.one_of(st.none(), st.integers(0, max(length - 1, 0))))
    low = node_ids[0] if node_ids else 0
    high = node_ids[-1] if node_ids else 0
    target = draw(
        st.one_of(
            st.integers(low - 10, low),
            st.integers(low, high),
            st.sampled_from(node_ids or [0]),
            st.integers(high, high + 10),
        )
    )
    return node_ids, start, stop, target


def as_lists(node_ids) -> list[PostingList]:
    in_memory = PostingList("t")
    for node_id in node_ids:
        in_memory.add_occurrences(node_id, [Position(0)])
    column = array("I", node_ids)
    packed = PackedPostingList(
        "t",
        column,
        array("I", range(len(node_ids) + 1)),
        array("I", [0] * len(node_ids)),
        array("I", [0] * len(node_ids)),
        array("I", [0] * len(node_ids)),
        array("I", column[::SKIP_BLOCK]),
    )
    return [in_memory, packed]


def snapshot_cursor_at(node_ids, stop: int, start: int) -> InvertedListCursor:
    """:func:`fast_cursor_at` on an in-memory list of the first ``stop``
    ids, opened before the rest were appended."""
    posting_list = as_lists(node_ids[:stop])[0]
    cursor = fast_cursor_at(posting_list, start)
    for node_id in node_ids[stop:]:
        posting_list.add_occurrences(node_id, [Position(0)])
    return cursor


@settings(max_examples=400, deadline=None)
@given(seek_cases())
def test_cursor_seek_equals_the_linear_then_binary_search(case):
    node_ids, start, stop, target = case
    start = min(max(start, -1), len(node_ids))
    for posting_list in as_lists(node_ids):
        cursor = fast_cursor_at(posting_list, start)
        assert_seek_matches_reference(cursor, node_ids, start, target)
    # A cursor opened before an append sees only its snapshot of the list.
    if stop is not None:
        start = min(start, stop)
        cursor = snapshot_cursor_at(node_ids, stop, start)
        assert_seek_matches_reference(cursor, node_ids, start, target, stop)


def test_cursor_seek_charge_at_the_linear_window_edges():
    node_ids = list(range(0, 40, 2))
    for start in range(-1, 21):
        for target in range(-1, 42):
            for posting_list in as_lists(node_ids):
                cursor = fast_cursor_at(posting_list, start)
                assert_seek_matches_reference(cursor, node_ids, start, target)
            for stop in (3, 4, 5, 6, 9, 19):
                if start <= stop:
                    cursor = snapshot_cursor_at(node_ids, stop, start)
                    assert_seek_matches_reference(
                        cursor, node_ids, start, target, stop
                    )
