"""Tests for the sequential inverted-list cursor API."""

from __future__ import annotations

import pytest

from repro.index.cursor import CursorFactory, CursorStats, InvertedListCursor
from repro.index.postings import PostingList
from repro.model.positions import Position


@pytest.fixture
def posting_list() -> PostingList:
    posting_list = PostingList("tok")
    posting_list.add_occurrences(1, (Position(0), Position(4)))
    posting_list.add_occurrences(5, (Position(2),))
    posting_list.add_occurrences(9, (Position(1), Position(3), Position(8)))
    return posting_list


def test_next_entry_walks_entries_in_order(posting_list):
    cursor = InvertedListCursor(posting_list)
    assert cursor.next_entry() == 1
    assert cursor.next_entry() == 5
    assert cursor.next_entry() == 9
    assert cursor.next_entry() is None
    assert cursor.exhausted()


def test_next_entry_after_exhaustion_stays_none(posting_list):
    cursor = InvertedListCursor(posting_list)
    for _ in range(5):
        cursor.next_entry()
    assert cursor.next_entry() is None


def test_get_positions_returns_current_entry_positions(posting_list):
    cursor = InvertedListCursor(posting_list)
    cursor.next_entry()
    assert [pos.offset for pos in cursor.get_positions()] == [0, 4]
    cursor.next_entry()
    assert [pos.offset for pos in cursor.get_positions()] == [2]


def test_get_positions_before_first_entry_raises(posting_list):
    cursor = InvertedListCursor(posting_list)
    with pytest.raises(RuntimeError):
        cursor.get_positions()


def test_current_node_tracks_cursor(posting_list):
    cursor = InvertedListCursor(posting_list)
    assert cursor.current_node() is None
    cursor.next_entry()
    assert cursor.current_node() == 1


def test_seek_skips_sequentially(posting_list):
    cursor = InvertedListCursor(posting_list)
    assert cursor.seek(5) == 5
    assert cursor.seek(5) == 5  # already there, no movement
    assert cursor.seek(7) == 9
    assert cursor.seek(100) is None


def test_statistics_count_operations(posting_list):
    cursor = InvertedListCursor(posting_list)
    cursor.next_entry()
    cursor.get_positions()
    cursor.next_entry()
    cursor.get_positions()
    stats = cursor.stats
    assert stats.next_entry_calls == 2
    assert stats.get_positions_calls == 2
    assert stats.positions_returned == 3  # 2 + 1


def test_cursor_factory_aggregates_stats(posting_list):
    factory = CursorFactory()
    first = factory.open(posting_list)
    second = factory.open(posting_list)
    first.next_entry()
    second.next_entry()
    second.next_entry()
    total = factory.collect_stats()
    assert total.next_entry_calls == 3


def test_cursor_stats_merge_and_dict():
    first = CursorStats(1, 2, 3)
    second = CursorStats(10, 20, 30)
    first.merge(second)
    assert first.as_dict() == {
        "next_entry_calls": 11,
        "get_positions_calls": 22,
        "positions_returned": 33,
    }


def test_empty_posting_list_cursor():
    cursor = InvertedListCursor(PostingList("tok"))
    assert cursor.next_entry() is None
    assert cursor.exhausted()
