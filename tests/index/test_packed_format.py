"""Tests for the packed v4 segment format: round-trips and corruption.

Satellite contract of the mmap-scatter PR: the packed encoder/decoder
round-trips arbitrary collections losslessly (property-tested), wide node
ids widen the columns instead of overflowing, truncated or bit-flipped
files are rejected with errors naming the offending path, and the v2/v3
loaders keep working untouched.
"""

from __future__ import annotations

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus import Collection, ContextNode
from repro.exceptions import IndexError_, StorageError
from repro.index import InvertedIndex, load_collection, save_collection
from repro.index.cursor import FAST_MODE, CursorStats, InvertedListCursor
from repro.index.packed import (
    PACKED_SEGMENT_VERSION,
    SKIP_BLOCK,
    PackedPostingList,
    build_packed_segment,
    is_packed_segment,
    node_from_record,
    node_to_record,
    open_packed_segment,
    write_packed_segment,
)
from repro.index.postings import PostingList
from repro.index.storage import load_segment, save_segment
from repro.model.positions import Position


def _lists_of(index: InvertedIndex) -> dict[str, PostingList]:
    return {pl.token: pl for pl in index.posting_lists()}


def _docs_of(index: InvertedIndex) -> dict[int, ContextNode]:
    return {node.node_id: node for node in index.collection}


def _write(tmp_path: Path, collection: Collection, **kwargs) -> Path:
    index = InvertedIndex(collection)
    path = tmp_path / "segment.seg"
    write_packed_segment(
        path, _docs_of(index), _lists_of(index), index.any_list(), **kwargs
    )
    return path


def _assert_lists_equal(packed: PostingList, reference: PostingList) -> None:
    assert packed.node_ids() == reference.node_ids()
    for index in range(len(reference)):
        assert packed.positions_at(index) == reference.positions_at(index)


@pytest.fixture
def collection() -> Collection:
    return Collection.from_texts(
        [
            "usability testing of software. a second sentence",
            "software task completion\n\nsecond paragraph here",
            "task analysis for usability engineering",
            "efficient software for task completion",
        ],
        name="packed-format",
    )


# --------------------------------------------------------------- round trips
def test_round_trip_preserves_lists_and_documents(tmp_path, collection):
    index = InvertedIndex(collection)
    path = _write(tmp_path, collection, generation=7, name="packed-format")
    assert is_packed_segment(path)
    with open_packed_segment(path, verify=True) as reader:
        assert reader.generation == 7
        assert reader.name == "packed-format"
        assert reader.statistics == {
            "nodes": len(collection),
            "tokens": sum(len(node) for node in collection),
        }
        assert reader.tokens() == index.tokens()
        for token in index.tokens():
            _assert_lists_equal(reader.posting_list(token), index.posting_list(token))
        _assert_lists_equal(reader.any_list(), index.any_list())
        assert reader.doc_ids() == collection.node_ids()
        for node in collection:
            restored = reader.document(node.node_id)
            assert restored.occurrences == node.occurrences
            assert restored.metadata == node.metadata


def test_posting_lists_validate_and_report_stats(tmp_path, collection):
    index = InvertedIndex(collection)
    path = _write(tmp_path, collection)
    with open_packed_segment(path) as reader:
        for token in reader.tokens():
            packed = reader.posting_list(token)
            packed.validate()
            reference = index.posting_list(token)
            assert packed.document_frequency() == reference.document_frequency()
            assert packed.total_positions() == reference.total_positions()


def test_missing_token_and_unknown_document(tmp_path, collection):
    path = _write(tmp_path, collection)
    with open_packed_segment(path) as reader:
        assert reader.posting_list("nonexistent") is None
        with pytest.raises(KeyError):
            reader.document(999)


def test_packed_lists_are_immutable(tmp_path, collection):
    path = _write(tmp_path, collection)
    with open_packed_segment(path) as reader:
        packed = reader.posting_list(reader.tokens()[0])
        with pytest.raises(IndexError_):
            packed.add_occurrences(99, [Position(0, 0, 0)])
        with pytest.raises(IndexError_):
            packed.append(None)


def test_empty_segment_round_trips(tmp_path):
    path = tmp_path / "empty.seg"
    write_packed_segment(path, {}, {}, None)
    with open_packed_segment(path, verify=True) as reader:
        assert len(reader) == 0
        assert reader.tokens() == []
        assert reader.doc_ids() == []
        assert len(reader.any_list()) == 0


def test_wide_node_ids_use_q_columns(tmp_path):
    big_id = 2**40  # larger than any u32
    node = ContextNode.from_tokens(big_id, ["alpha", "beta", "alpha"])
    posting = PostingList("alpha")
    posting.add_occurrences(big_id, [p for p in node.positions()][:2])
    path = tmp_path / "wide.seg"
    write_packed_segment(path, {big_id: node}, {"alpha": posting}, None)
    with open_packed_segment(path, verify=True) as reader:
        restored = reader.posting_list("alpha")
        assert restored.node_ids() == [big_id]
        assert reader.doc_ids() == [big_id]
        assert reader.document(big_id).occurrences == node.occurrences


# ------------------------------------------------------------ seek behaviour
def test_packed_cursor_seeks_match_in_memory_probe_for_probe():
    node_ids = list(range(0, 3 * SKIP_BLOCK * 7, 7))  # several skip blocks
    reference = PostingList("t")
    for node_id in node_ids:
        reference.add_occurrences(node_id, [Position(0, 0, 0)])
    blob = build_packed_segment({}, {"t": reference}, None)

    def cursor_at(posting_list, start):
        cursor = InvertedListCursor(posting_list, mode=FAST_MODE)
        for _ in range(start + 1):
            cursor.next_entry()
        cursor.stats = CursorStats()
        return cursor

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seek.seg"
        path.write_bytes(blob)
        with open_packed_segment(path) as reader:
            packed = reader.posting_list("t")
            assert isinstance(packed, PackedPostingList)
            length = len(node_ids)
            targets = [0, 1, 6, 7, 8, 350, 351, 352, 7 * SKIP_BLOCK,
                       7 * SKIP_BLOCK + 1, node_ids[-1], node_ids[-1] + 1]
            starts = [-1, 0, 1, 5, SKIP_BLOCK - 1, SKIP_BLOCK, length - 1, length]
            for start in starts:
                for target in targets:
                    got = cursor_at(packed, start)
                    expected = cursor_at(reference, start)
                    assert got.seek(target) == expected.seek(target), (start, target)
                    assert (
                        got.stats.as_extended_dict()
                        == expected.stats.as_extended_dict()
                    ), (start, target)


# ------------------------------------------------------------ property tests
TOKENS = ["a", "b", "c", "d"]
documents = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=12)


@st.composite
def collections(draw) -> Collection:
    docs = draw(st.lists(documents, min_size=1, max_size=6))
    nodes = [
        ContextNode.from_tokens(idx, tokens, sentence_length=3, paragraph_length=5)
        for idx, tokens in enumerate(docs)
    ]
    return Collection.from_nodes(nodes)


@settings(max_examples=40, deadline=None)
@given(collection=collections())
def test_property_packed_round_trip(collection):
    index = InvertedIndex(collection)
    blob = build_packed_segment(
        _docs_of(index), _lists_of(index), index.any_list(), generation=3
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prop.seg"
        path.write_bytes(blob)
        with open_packed_segment(path, verify=True) as reader:
            assert reader.tokens() == index.tokens()
            for token in index.tokens():
                _assert_lists_equal(
                    reader.posting_list(token), index.posting_list(token)
                )
            _assert_lists_equal(reader.any_list(), index.any_list())
            assert [node.occurrences for node in reader.documents()] == [
                node.occurrences for node in index.collection
            ]


@settings(max_examples=40, deadline=None)
@given(tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=20))
def test_property_node_record_round_trip(tokens):
    node = ContextNode.from_tokens(5, tokens, sentence_length=2, paragraph_length=4)
    restored = node_from_record(json.loads(json.dumps(node_to_record(node))))
    assert restored.node_id == node.node_id
    assert restored.occurrences == node.occurrences
    assert restored.metadata == node.metadata


# ---------------------------------------------------------------- corruption
def test_truncated_file_is_rejected_with_path(tmp_path, collection):
    path = _write(tmp_path, collection)
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(StorageError, match="truncated"):
        open_packed_segment(path)
    with pytest.raises(StorageError, match=str(path)):
        open_packed_segment(path)


def test_truncated_header_is_rejected(tmp_path, collection):
    path = _write(tmp_path, collection)
    path.write_bytes(path.read_bytes()[:12])
    with pytest.raises(StorageError, match="truncated"):
        open_packed_segment(path)


def test_bit_flip_is_caught_by_verify(tmp_path, collection):
    path = _write(tmp_path, collection)
    data = bytearray(path.read_bytes())
    data[-5] ^= 0xFF  # flip a payload byte, keeping the length intact
    path.write_bytes(bytes(data))
    open_packed_segment(path).close()  # structural checks alone still pass
    with pytest.raises(StorageError, match="checksum mismatch"):
        open_packed_segment(path, verify=True)


def test_future_version_is_rejected_with_version(tmp_path, collection):
    path = _write(tmp_path, collection)
    data = bytearray(path.read_bytes())
    assert bytes(data[:8]) == b"RPSEGv04"
    data[6:8] = b"99"
    path.write_bytes(bytes(data))
    with pytest.raises(
        StorageError, match="unsupported segment format version 99"
    ):
        open_packed_segment(path)


def test_non_packed_file_is_rejected(tmp_path):
    path = tmp_path / "noise.seg"
    path.write_bytes(b"definitely not a segment")
    assert not is_packed_segment(path)
    with pytest.raises(StorageError, match="not a packed repro segment"):
        open_packed_segment(path)


def test_corrupt_header_json_is_rejected(tmp_path, collection):
    path = _write(tmp_path, collection)
    data = bytearray(path.read_bytes())
    header_len = struct.unpack("<Q", bytes(data[8:16]))[0]
    for i in range(16, 16 + header_len):
        data[i] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(StorageError, match="corrupt segment header"):
        open_packed_segment(path)


# ------------------------------------------------------- storage integration
def test_save_segment_v4_round_trips_through_load_segment(tmp_path, collection):
    path = tmp_path / "v4.seg"
    nodes = list(collection)
    save_segment(nodes, path, generation=5, version=PACKED_SEGMENT_VERSION)
    assert is_packed_segment(path)
    restored, generation = load_segment(path)
    assert generation == 5
    assert [node.occurrences for node in restored] == [
        node.occurrences for node in nodes
    ]


def test_save_segment_v3_still_loads(tmp_path, collection):
    path = tmp_path / "v3.json.gz"
    nodes = list(collection)
    save_segment(nodes, path, generation=2, version=3)
    assert not is_packed_segment(path)
    restored, generation = load_segment(path)
    assert generation == 2
    assert [node.occurrences for node in restored] == [
        node.occurrences for node in nodes
    ]


def test_save_segment_refuses_downgrade(tmp_path, collection):
    with pytest.raises(StorageError, match="refusing to downgrade"):
        save_segment(list(collection), tmp_path / "old.json", generation=0, version=1)


def test_load_collection_error_names_path_and_version(tmp_path):
    path = tmp_path / "future.json"
    path.write_text(
        json.dumps({"format": "repro-collection", "version": 99, "nodes": []}),
        encoding="utf-8",
    )
    with pytest.raises(StorageError) as excinfo:
        load_collection(path)
    assert str(path) in str(excinfo.value)
    assert "99" in str(excinfo.value)


def test_load_segment_error_names_path_and_version(tmp_path, collection):
    path = tmp_path / "future-seg.json"
    path.write_text(
        json.dumps(
            {
                "format": "repro-segment",
                "version": 77,
                "generation": 1,
                "nodes": [],
                "statistics": {"nodes": 0, "tokens": 0},
            }
        ),
        encoding="utf-8",
    )
    with pytest.raises(StorageError) as excinfo:
        load_segment(path)
    assert str(path) in str(excinfo.value)
    assert "77" in str(excinfo.value)


def test_v2_collection_files_keep_loading(tmp_path, collection):
    path = tmp_path / "c.json.gz"
    save_collection(collection, path)
    restored = load_collection(path)
    assert restored.node_ids() == collection.node_ids()
