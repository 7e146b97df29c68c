"""Packed binary segment format (v4): mmap-served posting columns.

The v2/v3 formats store node records as JSON and rebuild the inverted lists
on load -- simple and version-stable, but a load materialises every posting
as Python objects before the first query can run.  The v4 format instead
writes the *columnar* posting arrays of :class:`~repro.index.postings.PostingList`
(node ids, entry bounds, delta-encoded position offsets, sentence and
paragraph ordinals) verbatim as packed little-endian blocks, plus a small
per-list skip table (the first node id of every :data:`SKIP_BLOCK`-entry
block) that narrows the binary-search range of ``seek_index``.

A v4 file is::

    magic "RPSEGv04" | u64 header length | header JSON | payload

where the header is a directory (per-token payload offsets, column
typecodes, entry/position counts, document-section layout, payload CRC32)
and the payload is the concatenation of all column blocks followed by the
document records (per-node JSON, offset-indexed).  Opening a file parses
only the magic and header -- O(directory), no payload read -- and mmaps
the payload, so posting lists are served as :class:`PackedPostingList`
objects whose columns are ``memoryview`` casts straight onto OS page-cache
pages: zero-copy, shared read-only across processes, nothing deserialised
until a cursor actually touches it.

Corruption handling: the header records the exact payload length, so
truncation fails at open time with the offending path; bit flips inside the
payload are caught by the stored CRC32 when opening with ``verify=True``
(or by :meth:`PostingList.validate` on the decoded columns).
"""

from __future__ import annotations

import json
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from mmap import ACCESS_READ, mmap
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from repro.corpus.document import ContextNode
from repro.corpus.tokenizer import TokenOccurrence
from repro.exceptions import StorageError
from repro.index.inverted_index import ANY_TOKEN
from repro.index.postings import PostingList
from repro.model.positions import Position

#: Magic prefix of packed segment files; the two digits after it are the
#: zero-padded format version (``b"RPSEGv04"`` for version 4).
PACKED_MAGIC_PREFIX = b"RPSEGv"

#: The packed segment format version this module reads and writes.
PACKED_SEGMENT_VERSION = 4

_MAGIC = PACKED_MAGIC_PREFIX + b"%02d" % PACKED_SEGMENT_VERSION
_MAGIC_LEN = 8
_HEADER_LEN_STRUCT = struct.Struct("<Q")

#: One skip-pointer per this many posting entries.  128 keeps the skip table
#: under 1% of the node-id column while cutting a seek's binary-search range
#: to a single block.
SKIP_BLOCK = 128

#: The five posting columns, in payload order.
_COLUMNS = ("_node_ids", "_entry_bounds", "_offset_deltas", "_sentences", "_paragraphs")

_ITEMSIZE = {"I": 4, "Q": 8}


def node_to_record(node: ContextNode) -> dict[str, Any]:
    """The JSON record of one context node (shared with the v2/v3 formats)."""
    return {
        "id": node.node_id,
        "metadata": dict(node.metadata),
        "occurrences": [
            [occ.token, occ.position.offset, occ.position.sentence,
             occ.position.paragraph]
            for occ in node.occurrences
        ],
    }


def node_from_record(payload: dict[str, Any]) -> ContextNode:
    """Rebuild a context node from its JSON record."""
    try:
        occurrences = tuple(
            TokenOccurrence(token, Position(offset, sentence, paragraph))
            for token, offset, sentence, paragraph in payload["occurrences"]
        )
        return ContextNode(payload["id"], occurrences, payload.get("metadata", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed node record: {exc}") from exc


# --------------------------------------------------------------------------
# Packed posting lists
# --------------------------------------------------------------------------

class PackedPostingList(PostingList):
    """A posting list whose columns are read-only views onto a packed buffer.

    Shares every accessor with :class:`PostingList` (the columns support
    indexing, ``len`` and ``bisect`` whether they are ``array`` objects or
    ``memoryview`` casts); only the mutators are closed off -- the backing
    buffer is an immutable segment payload shared across cursors and worker
    processes, so a single append would corrupt every reader at once.

    ``seek_index`` additionally consults the per-list skip table to narrow
    the binary-search window, but charges exactly the probe count of the
    in-memory implementation so fast-mode cursor statistics stay
    byte-identical between the packed and in-memory paths.
    """

    __slots__ = ("_skips",)

    def __init__(
        self,
        token: str,
        node_ids: Sequence[int],
        entry_bounds: Sequence[int],
        offset_deltas: Sequence[int],
        sentences: Sequence[int],
        paragraphs: Sequence[int],
        skips: Sequence[int] | None = None,
    ) -> None:
        self.token = token
        self._node_ids = node_ids
        self._entry_bounds = entry_bounds
        self._offset_deltas = offset_deltas
        self._sentences = sentences
        self._paragraphs = paragraphs
        self._decoded: dict[int, tuple[Position, ...]] = {}
        self._skips = skips

    def append(self, entry) -> None:
        self._raise_immutable()

    def add_occurrences(self, node_id: int, positions: Sequence[Position]) -> None:
        self._raise_immutable()

    def _raise_immutable(self) -> None:
        from repro.exceptions import IndexError_

        raise IndexError_(
            f"packed posting list {self.token!r} is immutable (backed by a "
            f"read-only segment buffer); rebuild the index to add entries"
        )

    def _bisect(self, node_id: int, lo: int, hi: int) -> int:
        """As :meth:`PostingList._bisect`, with skip-table narrowing.

        ``seek_index`` (and with it the probe charge) is inherited; the skip
        table only reduces the *physical* range the bisection touches (fewer
        pages faulted in on cold segments).  ``skips[b]`` is the node id of
        entry ``b * SKIP_BLOCK``, so the landing lies in
        ``[(block - 1) * SKIP_BLOCK, block * SKIP_BLOCK]``.
        """
        skips = self._skips
        if skips is not None and len(skips) > 1:
            block = bisect_left(skips, node_id)
            if block > 0:
                lo = max(lo, min((block - 1) * SKIP_BLOCK, hi))
            if block < len(skips):
                hi = min(hi, block * SKIP_BLOCK + 1)
        return bisect_left(self._node_ids, node_id, lo, hi)


# --------------------------------------------------------------------------
# Encoding
# --------------------------------------------------------------------------

def _column_bytes(column) -> bytes:
    """Little-endian bytes of a column (``array`` or ``memoryview``)."""
    if sys.byteorder == "little":
        return column.tobytes()
    if isinstance(column, memoryview):
        column = array(column.format, column)
    swapped = array(column.typecode, column)
    swapped.byteswap()
    return swapped.tobytes()


def _typecode(column) -> str:
    code = column.format if isinstance(column, memoryview) else column.typecode
    if code not in _ITEMSIZE:
        raise StorageError(f"unsupported posting column typecode {code!r}")
    return code


def _pack_list(posting_list: PostingList, chunks: list[bytes], offset: int):
    """Append one list's column blocks to ``chunks``; return its directory row."""
    columns = [getattr(posting_list, name) for name in _COLUMNS]
    typecodes = "".join(_typecode(column) for column in columns)
    node_ids = columns[0]
    entries = len(node_ids)
    skips = array(typecodes[0],
                  (node_ids[i] for i in range(0, entries, SKIP_BLOCK)))
    size = 0
    for column in columns:
        block = _column_bytes(column)
        chunks.append(block)
        size += len(block)
    block = _column_bytes(skips)
    chunks.append(block)
    size += len(block)
    row = [offset, entries, len(columns[2]), typecodes]
    return row, offset + size


def build_packed_segment(
    docs: Mapping[int, ContextNode],
    lists: Mapping[str, PostingList],
    any_list: PostingList | None,
    *,
    generation: int = 0,
    name: str = "collection",
) -> bytes:
    """Encode one sealed segment as packed v4 bytes.

    ``docs`` maps node id -> node (ids need not be pre-sorted); ``lists``
    maps token -> posting list; ``any_list`` is the ``IL_ANY`` list (may be
    ``None`` or empty).
    """
    chunks: list[bytes] = []
    offset = 0
    directory: list[list[Any]] = []
    for token in sorted(lists):
        row, offset = _pack_list(lists[token], chunks, offset)
        directory.append([token, *row])
    any_row = None
    if any_list is not None and len(any_list):
        any_row, offset = _pack_list(any_list, chunks, offset)

    node_ids = sorted(docs)
    doc_blobs = [json.dumps(node_to_record(docs[node_id])).encode("utf-8")
                 for node_id in node_ids]
    ids_column = array("Q", node_ids)
    doc_offsets = array("Q", [0])
    total = 0
    for blob in doc_blobs:
        total += len(blob)
        doc_offsets.append(total)
    docs_offset = offset
    chunks.append(_column_bytes(ids_column))
    chunks.append(_column_bytes(doc_offsets))
    chunks.extend(doc_blobs)

    payload = b"".join(chunks)
    token_count = sum(len(docs[node_id]) for node_id in node_ids)
    header = {
        "format": "repro-segment",
        "version": PACKED_SEGMENT_VERSION,
        "generation": generation,
        "name": name,
        "statistics": {"nodes": len(node_ids), "tokens": token_count},
        "payload_bytes": len(payload),
        "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
        "lists": directory,
        "any": any_row,
        "docs": {"offset": docs_offset, "count": len(node_ids)},
    }
    header_bytes = json.dumps(header).encode("utf-8")
    return b"".join(
        [_MAGIC, _HEADER_LEN_STRUCT.pack(len(header_bytes)), header_bytes, payload]
    )


def write_packed_segment(
    path: Path | str,
    docs: Mapping[int, ContextNode],
    lists: Mapping[str, PostingList],
    any_list: PostingList | None,
    *,
    generation: int = 0,
    name: str = "collection",
) -> None:
    """Write one sealed segment as a packed v4 file."""
    payload = build_packed_segment(
        docs, lists, any_list, generation=generation, name=name
    )
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def packed_index_bytes(index) -> int:
    """Size in bytes of ``index`` if written as one packed v4 segment.

    Used by the CLI stats commands to report the packed-vs-JSON size ratio
    without touching the filesystem.
    """
    lists = {pl.token: pl for pl in index.posting_lists()}
    docs = {node.node_id: node for node in index.collection}
    return len(build_packed_segment(docs, lists, index.any_list(),
                                    name=index.collection.name))


# --------------------------------------------------------------------------
# Reading
# --------------------------------------------------------------------------

def _cast_column(view: memoryview, offset: int, count: int, typecode: str):
    """A zero-copy typed view of ``count`` items at ``offset`` (LE payload)."""
    nbytes = count * _ITEMSIZE[typecode]
    chunk = view[offset:offset + nbytes]
    if sys.byteorder == "little":
        return chunk.cast(typecode)
    decoded = array(typecode)
    decoded.frombytes(chunk.tobytes())
    decoded.byteswap()
    return decoded


class PackedSegmentReader:
    """An open packed segment: O(1) open, lazy mmap-backed accessors.

    Opening parses the magic and header only.  Posting lists are built on
    first request as :class:`PackedPostingList` shells over ``memoryview``
    casts of the mmap'd payload (cached per token); documents are decoded
    lazily per node id from the offset-indexed JSON records.  Nothing in the
    payload is read until an accessor touches it, and what is read comes off
    OS page-cache pages shared with every other process mapping the file.
    """

    def __init__(self, path: Path | str, *, verify: bool = False) -> None:
        self.path = Path(path)
        try:
            self._file = open(self.path, "rb")
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc
        try:
            self._open(verify)
        except BaseException:
            self._file.close()
            raise

    def _open(self, verify: bool) -> None:
        magic = self._file.read(_MAGIC_LEN)
        if not magic.startswith(PACKED_MAGIC_PREFIX):
            raise StorageError(f"{self.path} is not a packed repro segment file")
        if magic != _MAGIC:
            found = magic[len(PACKED_MAGIC_PREFIX):].decode("ascii", "replace")
            raise StorageError(
                f"{self.path}: unsupported segment format version {found} "
                f"(supported packed version: {PACKED_SEGMENT_VERSION})"
            )
        raw_len = self._file.read(_HEADER_LEN_STRUCT.size)
        if len(raw_len) != _HEADER_LEN_STRUCT.size:
            raise StorageError(f"{self.path} is truncated (no segment header)")
        (header_len,) = _HEADER_LEN_STRUCT.unpack(raw_len)
        header_bytes = self._file.read(header_len)
        if len(header_bytes) != header_len:
            raise StorageError(f"{self.path} is truncated (short segment header)")
        try:
            header = json.loads(header_bytes)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"{self.path} has a corrupt segment header: {exc}"
            ) from exc
        if header.get("format") != "repro-segment":
            raise StorageError(f"{self.path} is not a repro segment file")
        if header.get("version") != PACKED_SEGMENT_VERSION:
            raise StorageError(
                f"{self.path}: unsupported segment format version "
                f"{header.get('version')} (supported packed version: "
                f"{PACKED_SEGMENT_VERSION})"
            )
        generation = header.get("generation")
        if not isinstance(generation, int) or generation < 0:
            raise StorageError(f"{self.path} has no valid segment generation")
        payload_start = _MAGIC_LEN + _HEADER_LEN_STRUCT.size + header_len
        payload_bytes = header.get("payload_bytes")
        actual = self.path.stat().st_size - payload_start
        if actual != payload_bytes:
            raise StorageError(
                f"{self.path} is truncated or corrupt: header promises "
                f"{payload_bytes} payload bytes, file holds {actual}"
            )
        self._header = header
        self.generation = generation
        self.name = header.get("name", "collection")
        self._directory = {row[0]: row[1:] for row in header["lists"]}
        self._any_row = header.get("any")
        self._docs_meta = header["docs"]
        if payload_bytes:
            self._mmap = mmap(self._file.fileno(), 0, access=ACCESS_READ)
            self._payload = memoryview(self._mmap)[payload_start:]
        else:
            self._mmap = None
            self._payload = memoryview(b"")
        self._lists: dict[str, PackedPostingList] = {}
        self._any_list: PackedPostingList | None = None
        self._doc_ids: list[int] | None = None
        self._doc_offsets = None
        self._doc_blob_start: int | None = None
        self._doc_cache: dict[int, ContextNode] = {}
        self._closed = False
        if verify:
            self.verify_checksum()

    # ----------------------------------------------------------- file header
    @property
    def statistics(self) -> dict[str, int]:
        """The ``{"nodes": ..., "tokens": ...}`` block from the header."""
        return dict(self._header["statistics"])

    def verify_checksum(self) -> None:
        """Re-hash the whole payload against the stored CRC32 (reads it all)."""
        actual = zlib.crc32(self._payload) & 0xFFFFFFFF
        if actual != self._header["crc32"]:
            raise StorageError(
                f"{self.path} payload checksum mismatch (stored "
                f"{self._header['crc32']:#010x}, computed {actual:#010x}); "
                f"the file is corrupt"
            )

    # --------------------------------------------------------- posting lists
    def _build_list(self, token: str, row: list) -> PackedPostingList:
        offset, entries, positions, typecodes = row
        view = self._payload
        columns = []
        counts = (entries, entries + 1, positions, positions, positions)
        for typecode, count in zip(typecodes, counts):
            columns.append(_cast_column(view, offset, count, typecode))
            offset += count * _ITEMSIZE[typecode]
        skip_count = -(-entries // SKIP_BLOCK) if entries else 0
        skips = _cast_column(view, offset, skip_count, typecodes[0])
        return PackedPostingList(token, *columns, skips=skips)

    def tokens(self) -> list[str]:
        """All indexed tokens (the directory keys, already sorted)."""
        return list(self._directory)

    def posting_list(self, token: str) -> PackedPostingList | None:
        """The packed list of ``token`` or ``None`` (cached per token)."""
        cached = self._lists.get(token)
        if cached is None:
            row = self._directory.get(token)
            if row is None:
                return None
            cached = self._build_list(token, row)
            self._lists[token] = cached
        return cached

    def any_list(self) -> PostingList:
        """The ``IL_ANY`` list (empty in-memory list if the segment has none)."""
        if self._any_list is None:
            if self._any_row is None:
                return PostingList(ANY_TOKEN)
            self._any_list = self._build_list(ANY_TOKEN, self._any_row)
        return self._any_list

    # ------------------------------------------------------------- documents
    def _docs_columns(self):
        if self._doc_ids is None:
            meta = self._docs_meta
            offset, count = meta["offset"], meta["count"]
            ids = _cast_column(self._payload, offset, count, "Q")
            offset += count * _ITEMSIZE["Q"]
            self._doc_offsets = _cast_column(self._payload, offset, count + 1, "Q")
            self._doc_blob_start = offset + (count + 1) * _ITEMSIZE["Q"]
            self._doc_ids = list(ids)
        return self._doc_ids, self._doc_offsets, self._doc_blob_start

    def doc_ids(self) -> list[int]:
        """All node ids in the segment, ascending."""
        return list(self._docs_columns()[0])

    def __len__(self) -> int:
        return self._docs_meta["count"]

    def document(self, node_id: int) -> ContextNode:
        """Decode the node record of ``node_id`` (cached)."""
        cached = self._doc_cache.get(node_id)
        if cached is not None:
            return cached
        ids, offsets, blob_start = self._docs_columns()
        index = bisect_left(ids, node_id)
        if index >= len(ids) or ids[index] != node_id:
            raise KeyError(node_id)
        lo = blob_start + offsets[index]
        hi = blob_start + offsets[index + 1]
        try:
            record = json.loads(bytes(self._payload[lo:hi]))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StorageError(
                f"{self.path} has a corrupt document record for node "
                f"{node_id}: {exc}"
            ) from exc
        node = node_from_record(record)
        self._doc_cache[node_id] = node
        return node

    def documents(self) -> Iterator[ContextNode]:
        """Decode all node records in ascending node-id order."""
        for node_id in self._docs_columns()[0]:
            yield self.document(node_id)

    def materialize_nodes(self) -> list[ContextNode]:
        """Fully decode the segment's nodes (the v2/v3-compatible load path)."""
        return list(self.documents())

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Drop caches and release the mapping (best-effort).

        Posting lists and cursors handed out earlier keep borrowed views of
        the payload; while any of them is alive the OS mapping stays open
        (``mmap`` refuses to close under exported buffers) and is reclaimed
        when the last borrower is garbage-collected.
        """
        if self._closed:
            return
        self._closed = True
        self._lists.clear()
        self._any_list = None
        self._doc_cache.clear()
        self._doc_ids = None
        self._doc_offsets = None
        if self._mmap is not None:
            try:
                self._payload.release()
                self._mmap.close()
            except BufferError:
                pass
        self._payload = memoryview(b"")
        self._file.close()

    def __enter__(self) -> "PackedSegmentReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PackedSegmentReader(path={str(self.path)!r}, "
            f"generation={self.generation}, tokens={len(self._directory)})"
        )


def is_packed_segment(path: Path | str) -> bool:
    """True if ``path`` starts with the packed segment magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(PACKED_MAGIC_PREFIX)) == PACKED_MAGIC_PREFIX
    except OSError:
        return False


def open_packed_segment(
    path: Path | str, *, verify: bool = False
) -> PackedSegmentReader:
    """Open a packed v4 segment for zero-copy reading.

    ``verify=True`` additionally checks the payload CRC32 (reads the whole
    payload once); without it, truncation is still caught structurally at
    open time and logical corruption by ``validate()`` on the lists.
    """
    return PackedSegmentReader(path, verify=verify)
