"""Tests for MultiSegmentCursor: k-way merge + tombstone filtering."""

from __future__ import annotations

import pytest

from repro.index.cursor import (
    CursorFactory,
    FAST_MODE,
    InvertedListCursor,
    MultiSegmentCursor,
    PAPER_MODE,
)
from repro.index.postings import PostingList


def make_list(token: str, entries: dict[int, list[int]]) -> PostingList:
    posting_list = PostingList(token)
    for node_id in sorted(entries):
        posting_list.add_occurrences(node_id, entries[node_id])
    return posting_list


def make_cursor(parts, mode=PAPER_MODE) -> MultiSegmentCursor:
    return MultiSegmentCursor(
        [(InvertedListCursor(pl, mode=mode), dead) for pl, dead in parts],
        mode=mode,
    )


def drain(cursor) -> list[int]:
    ids = []
    node = cursor.next_entry()
    while node is not None:
        ids.append(node)
        node = cursor.next_entry()
    return ids


def test_merges_disjoint_segments_in_id_order():
    a = make_list("t", {0: [1], 4: [2], 9: [3]})
    b = make_list("t", {2: [1], 5: [2]})
    c = make_list("t", {1: [4]})
    cursor = make_cursor([(a, None), (b, None), (c, None)])
    assert drain(cursor) == [0, 1, 2, 4, 5, 9]
    assert cursor.exhausted()
    assert cursor.current_node() is None


def test_tombstone_filter_hides_entries():
    a = make_list("t", {0: [1], 4: [2], 9: [3]})
    b = make_list("t", {2: [1]})
    dead = {4}.__contains__
    cursor = make_cursor([(a, dead), (b, None)])
    assert drain(cursor) == [0, 2, 9]


def test_token_inherited_from_children():
    a = make_list("tok", {0: [1]})
    cursor = make_cursor([(a, None)])
    assert cursor.token == "tok"


def test_get_positions_comes_from_the_owning_segment():
    a = make_list("t", {0: [1, 5], 9: [3]})
    b = make_list("t", {2: [7]})
    cursor = make_cursor([(a, None), (b, None)])
    assert cursor.next_entry() == 0
    assert [p.offset for p in cursor.get_positions()] == [1, 5]
    assert cursor.next_entry() == 2
    assert [p.offset for p in cursor.get_positions()] == [7]
    assert cursor.next_entry() == 9
    assert [p.offset for p in cursor.get_positions()] == [3]


def test_get_positions_off_entry_raises():
    cursor = make_cursor([(make_list("t", {0: [1]}), None)])
    with pytest.raises(RuntimeError):
        cursor.get_positions()
    drain(cursor)
    with pytest.raises(RuntimeError):
        cursor.get_positions()


def test_seek_lands_on_first_visible_at_or_after_target():
    a = make_list("t", {0: [1], 4: [2], 9: [3]})
    b = make_list("t", {2: [1], 6: [2]})
    cursor = make_cursor([(a, None), (b, None)])
    assert cursor.seek(3) == 4
    # seek never moves backwards and is idempotent at the current entry
    assert cursor.seek(1) == 4
    assert cursor.seek(5) == 6
    assert [p.offset for p in cursor.get_positions()] == [2]
    assert cursor.seek(100) is None
    assert cursor.exhausted()


def test_seek_skips_tombstoned_landing():
    a = make_list("t", {0: [1], 4: [2], 9: [3]})
    cursor = make_cursor([(a, {4}.__contains__)])
    assert cursor.seek(2) == 9


def test_seek_into_a_gap():
    a = make_list("t", {0: [1], 7: [2]})
    cursor = make_cursor([(a, None)])
    assert cursor.seek(3) == 7


def test_entry_count_sums_children():
    a = make_list("t", {0: [1], 4: [2]})
    b = make_list("t", {2: [1]})
    cursor = make_cursor([(a, None), (b, None)])
    assert cursor.entry_count() == 3


def test_children_charge_into_shared_stats():
    a = make_list("t", {0: [1], 4: [2]})
    b = make_list("t", {2: [1]})
    cursor = make_cursor([(a, None), (b, None)])
    drain(cursor)
    # Priming walks each child once; every merge step advances one child;
    # the final call discovers exhaustion.  All charges land in one place.
    assert cursor.stats.next_entry_calls >= 4
    assert cursor.stats.get_positions_calls == 0


def test_exhausted_cursor_still_charges_the_discovery_call():
    cursor = make_cursor([(make_list("t", {0: [1]}), None)])
    assert drain(cursor) == [0]
    calls = cursor.stats.next_entry_calls
    assert cursor.next_entry() is None
    assert cursor.stats.next_entry_calls == calls + 1


def test_fast_mode_charges_seeks_not_scans():
    a = make_list("t", {i: [1] for i in range(0, 40, 2)})
    cursor = make_cursor([(a, None)], mode=FAST_MODE)
    cursor.next_entry()
    sequential = cursor.stats.next_entry_calls
    assert cursor.seek(30) == 30
    assert cursor.stats.seek_calls >= 1
    assert cursor.stats.next_entry_calls == sequential


def test_factory_adoption_aggregates_stats():
    factory = CursorFactory(mode=PAPER_MODE)
    a = make_list("t", {0: [1], 4: [2]})
    cursor = factory.adopt(
        MultiSegmentCursor([(InvertedListCursor(a, mode=PAPER_MODE), None)],
                           mode=PAPER_MODE)
    )
    drain(cursor)
    assert factory.collect_stats().next_entry_calls == cursor.stats.next_entry_calls


def test_duplicate_visible_ids_are_merged_not_emitted_twice():
    # Defensive: should never happen on a healthy index, but the merge must
    # not emit one node twice if two segments claim the same visible id.
    a = make_list("t", {3: [1]})
    b = make_list("t", {3: [9]})
    cursor = make_cursor([(a, None), (b, None)])
    assert drain(cursor) == [3]
