"""Tests for packed (v4) live-index segment persistence.

The live subsystem seals every segment as a packed binary file: restore
must mmap them zero-copy (:class:`PackedSegmentData`) instead of
rebuilding posting columns, queries over restored packed segments must
equal a fresh in-memory rebuild, tombstones must survive the round trip,
and v3 JSON directories and mixed-format directories left by pre-v4
writers must keep restoring.
"""

from __future__ import annotations

import json

import pytest

from repro.corpus.collection import Collection
from repro.exceptions import StorageError
from repro.index.inverted_index import InvertedIndex
from repro.index.packed import is_packed_segment
from repro.index.storage import save_segment
from repro.segments import LiveIndex
from repro.segments.sealed import PackedSegmentData, SegmentData


def collect(cursor) -> list[int]:
    ids = []
    current = cursor.next_entry()
    while current is not None:
        ids.append(current)
        current = cursor.next_entry()
    return ids


@pytest.fixture
def texts() -> list[str]:
    return [
        "usability testing of software",
        "software task completion",
        "task analysis for usability",
        "efficient software testing",
    ]


def _restored_segment_data(live: LiveIndex):
    return [segment.data for segment in live._manager.segments]


# ----------------------------------------------------------- packed persist
def test_seal_writes_packed_files_and_manifest_v4(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.add_text("doc one")
    live.flush()
    live.close()
    segments = sorted(directory.glob("segments/seg-*.seg"))
    assert segments and all(is_packed_segment(path) for path in segments)
    assert not list(directory.glob("segments/seg-*.json.gz"))
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    assert manifest["version"] == 4


def test_restore_serves_packed_segments_zero_copy(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.add_text("fresh software document")
    live.flush()
    live.close()

    reopened = LiveIndex.open(directory)
    restored = _restored_segment_data(reopened)
    assert restored and all(
        isinstance(data, PackedSegmentData) for data in restored
    )
    assert reopened.node_count() == len(texts) + 1
    assert collect(reopened.open_cursor("software")) == [0, 1, 3, 4]
    reopened.validate()
    reopened.close()


def test_restored_queries_equal_fresh_rebuild(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.add_text("brand new software tokens")
    live.update_text(0, "rewritten usability document")
    live.flush()
    live.close()

    reopened = LiveIndex.open(directory)
    reference = InvertedIndex(
        Collection.from_nodes(
            sorted(reopened.collection, key=lambda node: node.node_id)
        )
    )
    assert reopened.tokens() == reference.tokens()
    for token in reference.tokens():
        assert reopened.document_frequency(token) == reference.document_frequency(
            token
        ), token
        assert collect(reopened.open_cursor(token)) == reference.posting_list(
            token
        ).node_ids(), token
    reopened.close()


def test_tombstones_survive_packed_restore(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.flush()
    live.delete_node(1)
    live.close()

    reopened = LiveIndex.open(directory)
    assert reopened.node_ids() == [0, 2, 3]
    assert 1 not in [
        node.node_id for node in reopened.collection
    ]
    reopened.validate()
    reopened.close()


def test_wal_replay_on_top_of_packed_segments(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.flush()
    live.add_text("unflushed tail document")  # stays in the WAL
    live.close()

    recovered = LiveIndex.open(directory)
    assert recovered.node_count() == len(texts) + 1
    assert collect(recovered.open_cursor("unflushed")) == [len(texts)]
    recovered.close()


def test_compaction_unlinks_packed_files(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(
        Collection.from_texts(texts), directory=directory, flush_threshold=2
    )
    for i in range(6):
        live.add_text(f"filler document number {i}")
    live.flush()
    before = set(directory.glob("segments/seg-*.seg"))
    assert len(before) > 1
    live.compact()
    after = set(directory.glob("segments/seg-*.seg"))
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    listed = {directory / "segments" / record["file"] for record in manifest["segments"]}
    assert after == listed  # no orphaned segment files
    live.close()


# ------------------------------------------------------------- v3 json segments
def write_v3_directory(directory, texts) -> None:
    """A live directory as a v3-era writer left it: one gzip'd JSON segment
    (``save_segment(..., version=3)``) and a version-3 manifest."""
    collection = Collection.from_texts(texts)
    (directory / "segments").mkdir(parents=True)
    name = "seg-00000001.json.gz"
    save_segment(
        list(collection), directory / "segments" / name, generation=1, version=3
    )
    manifest = {
        "format": "repro-manifest",
        "version": 3,
        "applied_seq": 0,
        "next_node_id": len(texts),
        "segments": [{"file": name, "generation": 1, "tombstones": []}],
    }
    (directory / "MANIFEST.json").write_text(json.dumps(manifest))


def test_v3_json_directory_restores(tmp_path, texts):
    directory = tmp_path / "idx"
    write_v3_directory(directory, texts)
    reopened = LiveIndex.open(directory)
    restored = _restored_segment_data(reopened)
    assert restored and all(type(data) is SegmentData for data in restored)
    assert reopened.node_count() == len(texts)
    reopened.validate()
    reopened.close()


def test_mixed_format_directory_restores_and_compacts(tmp_path, texts):
    directory = tmp_path / "idx"
    write_v3_directory(directory, texts)

    # New seals are packed; the old json segment restores beside them.
    mixed = LiveIndex.open(directory)
    mixed.add_text("a packed era document")
    mixed.flush()
    json_files = list(directory.glob("segments/seg-*.json.gz"))
    seg_files = list(directory.glob("segments/seg-*.seg"))
    assert json_files and seg_files
    assert json.loads((directory / "MANIFEST.json").read_text())["version"] == 4
    mixed.close()

    reopened = LiveIndex.open(directory)
    assert reopened.node_count() == len(texts) + 1
    datas = _restored_segment_data(reopened)
    assert any(isinstance(data, PackedSegmentData) for data in datas)
    assert any(type(data) is SegmentData for data in datas)

    # Full compaction rewrites everything packed and unlinks BOTH formats'
    # old files (the per-generation file map knows each real path).
    reopened.compact()
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    on_disk = {path.name for path in directory.glob("segments/seg-*")}
    assert on_disk == {record["file"] for record in manifest["segments"]}
    assert all(name.endswith(".seg") for name in on_disk)
    reopened.close()


def test_manifest_error_names_path(tmp_path, texts):
    directory = tmp_path / "idx"
    live = LiveIndex(Collection.from_texts(texts), directory=directory)
    live.flush()
    live.close()
    manifest_path = directory / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 42
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StorageError) as excinfo:
        LiveIndex.open(directory)
    assert "42" in str(excinfo.value)
    assert str(manifest_path) in str(excinfo.value)
