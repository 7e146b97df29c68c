"""Live indexing: WAL + memtable + sealed segments + compaction.

This package turns the static index of the paper into a log-structured,
mutable-corpus engine (the Lucene-style segment architecture):

* :mod:`repro.segments.wal`        -- append-only JSONL write-ahead log with
  batched fsync and torn-tail-tolerant replay;
* :mod:`repro.segments.memtable`   -- the small mutable head accepting adds,
  updates and deletes, with a cached immutable view that encodes a token's
  posting list on first request;
* :mod:`repro.segments.sealed`     -- immutable segments built on the
  columnar :class:`~repro.index.postings.PostingList` storage;
* :mod:`repro.segments.tombstones` -- seqno-stamped logical deletes, applied
  at cursor-merge time with snapshot-consistent visibility;
* :mod:`repro.segments.manager`    -- memtable + segments + location map +
  snapshot isolation + tiered background compaction;
* :mod:`repro.segments.stats`      -- exact survivor-based corpus statistics,
  maintained by per-document deltas, so live scores equal freshly-rebuilt
  scores;
* :mod:`repro.segments.live_index` -- the index facade combining all of the
  above with v3 segment-file persistence and manifest-based recovery.

The high-level entry point is
``FullTextEngine.from_collection(collection, live=True)``; at the cluster
scale, :class:`repro.cluster.live.LiveShardedIndex` runs one live index per
shard.
"""

from repro.segments.live_index import LiveIndex
from repro.segments.manager import (
    DEFAULT_COMPACTION_FANOUT,
    DEFAULT_FLUSH_THRESHOLD,
    MEMTABLE_LOCATION,
    SegmentManager,
    SegmentSnapshot,
)
from repro.segments.memtable import MemTable
from repro.segments.sealed import SealedSegment, SegmentData
from repro.segments.stats import LiveStatistics
from repro.segments.tombstones import TombstoneSet
from repro.segments.wal import DEFAULT_SYNC_EVERY, WriteAheadLog

__all__ = [
    "DEFAULT_COMPACTION_FANOUT",
    "DEFAULT_FLUSH_THRESHOLD",
    "DEFAULT_SYNC_EVERY",
    "LiveIndex",
    "LiveStatistics",
    "MEMTABLE_LOCATION",
    "MemTable",
    "SealedSegment",
    "SegmentData",
    "SegmentManager",
    "SegmentSnapshot",
    "TombstoneSet",
    "WriteAheadLog",
]
