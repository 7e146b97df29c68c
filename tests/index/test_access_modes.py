"""Tests for the columnar posting storage and the seek-capable cursor layer.

Covers the seek edge cases named in the refactor issue (seek before the
first entry, to a gap, past the end, after exhaustion), the two cost
accounting modes, and the columnar-specific machinery (lazy views, memory
footprint, validation, the shared empty-list singleton).
"""

from __future__ import annotations

import pytest

from repro.exceptions import EvaluationError, IndexError_
from repro.index import InvertedIndex
from repro.index.cursor import (
    FAST_MODE,
    PAPER_MODE,
    SEEK_LINEAR_LIMIT,
    CursorFactory,
    CursorStats,
    InvertedListCursor,
    check_access_mode,
)
from repro.index.inverted_index import _EMPTY_LIST
from repro.index.postings import EmptyPostingList, PostingList
from repro.corpus import Collection
from repro.model.positions import Position


def make_list(*node_ids: int) -> PostingList:
    posting_list = PostingList("tok")
    for node_id in node_ids:
        posting_list.add_occurrences(node_id, (Position(0), Position(2)))
    return posting_list


@pytest.fixture
def gappy() -> PostingList:
    # Node ids with gaps: seeks can land before, inside, and past the list.
    return make_list(2, 5, 9, 14, 30)


# ---------------------------------------------------------------- seek edges
@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_before_first_entry(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    assert cursor.seek(1) == 2
    assert cursor.current_node() == 2


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_to_gap_lands_on_next_entry(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    assert cursor.seek(6) == 9
    assert cursor.seek(10) == 14


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_past_the_end_exhausts(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    assert cursor.seek(31) is None
    assert cursor.exhausted()


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_after_exhaustion_stays_none(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    cursor.seek(100)
    assert cursor.seek(1) is None
    assert cursor.seek(100) is None


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_never_moves_backwards(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    assert cursor.seek(14) == 14
    assert cursor.seek(3) == 14  # already past 3: stays put
    assert cursor.current_node() == 14


@pytest.mark.parametrize("mode", [PAPER_MODE, FAST_MODE])
def test_seek_interleaves_with_sequential_api(gappy, mode):
    cursor = InvertedListCursor(gappy, mode=mode)
    assert cursor.next_entry() == 2
    assert [p.offset for p in cursor.get_positions()] == [0, 2]
    assert cursor.seek(9) == 9
    assert [p.offset for p in cursor.get_positions()] == [0, 2]
    assert cursor.next_entry() == 14


# ------------------------------------------------------------- cost accounting
def test_paper_mode_seek_charges_exactly_like_sequential_stepping(gappy):
    """The paper-mode charge of a seek equals a literal next_entry loop."""
    seeker = InvertedListCursor(gappy, mode=PAPER_MODE)
    stepper = InvertedListCursor(gappy, mode=PAPER_MODE)

    def step_advance(cursor, target):
        current = cursor.current_node()
        if current is not None and current >= target:
            return current
        while True:
            current = cursor.next_entry()
            if current is None or current >= target:
                return current

    for target in (1, 5, 5, 11, 31, 40, 50):
        assert seeker.seek(target) == step_advance(stepper, target)
        assert seeker.stats.as_dict() == stepper.stats.as_dict()
    assert seeker.stats.seek_calls == 0
    assert seeker.stats.seek_probes == 0


def test_fast_mode_seek_charges_log_not_linear():
    posting_list = make_list(*range(0, 4096, 2))
    cursor = InvertedListCursor(posting_list, mode=FAST_MODE)
    assert cursor.seek(4000) == 4000
    assert cursor.stats.next_entry_calls == 0
    assert cursor.stats.seek_calls == 1
    # Galloping + binary search: far fewer probes than the 2000 entries skipped.
    assert 0 < cursor.stats.seek_probes <= 2 * 12 + SEEK_LINEAR_LIMIT


def test_fast_mode_seek_on_current_entry_is_uncharged(gappy):
    cursor = InvertedListCursor(gappy, mode=FAST_MODE)
    cursor.seek(5)
    charged = cursor.stats.seek_calls
    assert cursor.seek(5) == 5
    assert cursor.seek(4) == 5
    assert cursor.stats.seek_calls == charged


def test_paper_mode_seek_into_a_gap_then_past_the_end(gappy):
    cursor = InvertedListCursor(gappy, mode=PAPER_MODE)
    assert cursor.seek(6) == 9
    assert cursor.seek(100) is None


def test_cursor_stats_extended_dict_and_copy():
    stats = CursorStats(1, 2, 3, 4, 5)
    assert stats.as_dict() == {
        "next_entry_calls": 1,
        "get_positions_calls": 2,
        "positions_returned": 3,
    }
    assert stats.as_extended_dict()["seek_calls"] == 4
    assert stats.as_extended_dict()["seek_probes"] == 5
    copy = stats.copy()
    assert copy.as_extended_dict() == stats.as_extended_dict()
    copy.merge(CursorStats(1, 1, 1, 1, 1))
    assert stats.as_extended_dict()["seek_probes"] == 5  # independent


def test_factory_fixes_the_mode_and_rejects_unknown_modes(gappy):
    factory = CursorFactory(mode=FAST_MODE)
    cursor = factory.open(gappy)
    assert cursor.mode == FAST_MODE
    with pytest.raises(EvaluationError):
        CursorFactory(mode="warp")
    with pytest.raises(EvaluationError):
        InvertedListCursor(gappy, mode="warp")
    with pytest.raises(EvaluationError):
        check_access_mode("warp")


# --------------------------------------------------------------- columnar core
def test_columnar_lazy_views_round_trip():
    posting_list = PostingList("tok")
    posting_list.add_occurrences(3, (Position(1, 0, 0), Position(4, 1, 0), Position(9, 2, 1)))
    posting_list.add_occurrences(8, (Position(0, 0, 0),))
    entry = posting_list.entry(0)
    assert entry.node_id == 3
    assert entry.position_offsets() == [1, 4, 9]
    # Structural ordinals survive the columnar encoding.
    assert [p.sentence for p in posting_list.positions_at(0)] == [0, 1, 2]
    assert [p.paragraph for p in posting_list.positions_at(0)] == [0, 0, 1]
    assert posting_list.position_offsets_at(1) == [0]
    assert list(posting_list.node_id_column()) == [3, 8]
    posting_list.validate()


def test_columnar_rejects_bad_occurrences_and_rolls_back():
    posting_list = PostingList("tok")
    posting_list.add_occurrences(1, (Position(0),))
    with pytest.raises(IndexError_):
        posting_list.add_occurrences(2, (Position(5), Position(3)))
    with pytest.raises(IndexError_):
        posting_list.add_occurrences(2, (Position(3), Position(3)))
    with pytest.raises(IndexError_):
        posting_list.add_occurrences(2, ())
    # The failed entries left no partial columns behind.
    assert len(posting_list) == 1
    assert posting_list.total_positions() == 1
    posting_list.validate()
    posting_list.add_occurrences(2, (Position(3), Position(5)))
    assert posting_list.node_ids() == [1, 2]


def test_columnar_widens_for_large_values():
    posting_list = PostingList("tok")
    posting_list.add_occurrences(1, (Position(0),))
    huge = 2**40
    posting_list.add_occurrences(huge, (Position(huge),))
    assert posting_list.node_ids() == [1, huge]
    assert posting_list.position_offsets_at(1) == [huge]
    posting_list.validate()


def test_overflow_mid_append_rolls_back_cleanly():
    posting_list = PostingList("tok")
    posting_list.add_occurrences(1, (Position(0),))
    with pytest.raises(OverflowError):
        posting_list.add_occurrences(2**65, (Position(1),))
    # The failed entry left no orphaned position values behind.
    posting_list.add_occurrences(5, (Position(2),))
    assert posting_list.entry_for(5).position_offsets() == [2]
    assert posting_list.total_positions() == 2
    posting_list.validate()


def test_seek_stays_within_the_cursor_snapshot():
    posting_list = make_list(0, 1, 2, 3, 4)
    cursor = InvertedListCursor(posting_list, mode=PAPER_MODE)
    for node_id in range(5, 100):
        posting_list.add_occurrences(node_id, (Position(0),))
    # Entries appended after the cursor opened are invisible to it, and the
    # paper charge is the snapshot's sequential cost (5 entries + the call
    # that discovers exhaustion), not a walk over the live list.
    assert cursor.seek(50) is None
    assert cursor.stats.next_entry_calls == 6


def test_accepts_plain_int_offsets():
    posting_list = PostingList("tok")
    posting_list.add_occurrences(1, (0, 3, 7))
    assert posting_list.position_offsets_at(0) == [0, 3, 7]


def test_memory_breakdown_counts_payload_bytes():
    posting_list = make_list(1, 2, 3)
    breakdown = posting_list.memory_breakdown()
    assert breakdown["node_ids_bytes"] == 3 * posting_list._node_ids.itemsize
    assert posting_list.memory_bytes() == sum(breakdown.values())


def test_fast_seek_linear_and_binary_charges(gappy):
    cursor = InvertedListCursor(gappy, mode=FAST_MODE)
    assert cursor.seek(1) == 2
    assert cursor.stats.seek_probes == 1  # inside the linear window
    cursor = InvertedListCursor(gappy, mode=FAST_MODE)
    assert cursor.seek(30) == 30
    assert cursor.stats.seek_probes == SEEK_LINEAR_LIMIT + 1  # then binary
    assert cursor.seek(31) is None
    probes = cursor.stats.seek_probes
    assert cursor.seek(1) is None  # exhausted: charged a call, no probes
    assert cursor.stats.seek_probes == probes


# ------------------------------------------------------- empty-list singleton
def test_absent_token_lookup_returns_shared_singleton():
    index = InvertedIndex(Collection.from_texts(["alpha beta"]))
    first = index.posting_list("missing")
    second = index.posting_list("also-missing")
    assert first is second is _EMPTY_LIST
    assert len(first) == 0
    assert isinstance(first, EmptyPostingList)


def test_shared_empty_list_is_immutable():
    index = InvertedIndex(Collection.from_texts(["alpha beta"]))
    empty = index.posting_list("missing")
    with pytest.raises(IndexError_):
        empty.add_occurrences(1, (Position(0),))


def test_cursor_over_absent_token_carries_requested_token():
    index = InvertedIndex(Collection.from_texts(["alpha beta"]))
    cursor = index.open_cursor("missing")
    assert cursor.token == "missing"
    assert cursor.next_entry() is None
    factory = CursorFactory(mode=FAST_MODE)
    cursor = index.open_cursor("missing", factory)
    assert cursor.token == "missing"
    assert cursor.mode == FAST_MODE


def test_index_memory_footprint_totals():
    index = InvertedIndex(Collection.from_texts(["alpha beta alpha", "beta gamma"]))
    footprint = index.memory_footprint()
    assert footprint["total_bytes"] == sum(
        value for key, value in footprint.items() if key != "total_bytes"
    )
    assert footprint["total_bytes"] > 0
