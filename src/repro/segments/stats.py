"""Exact corpus statistics over the *surviving* documents of a live index.

Scoring must not notice that an index is live: TF-IDF and the probabilistic
model read document frequency ``df(t)``, the node count and the per-node
token tables from an :class:`~repro.index.statistics.IndexStatistics`.  A
live index cannot reuse the parent's constructor (it derives ``df`` from
physical posting lists, which still hold tombstoned entries), so this
subclass keeps the tables of the survivors instead -- numbers identical to a
fresh :class:`~repro.index.inverted_index.InvertedIndex` built from the same
survivors, which is what the live-vs-rebuilt contract tests pin down.

The tables are *maintained*, never recomputed: whoever changes the document
store (the segment manager; the live sharded index for its global view)
calls :meth:`LiveStatistics.apply` with the old and the new revision of the
one document that changed, which costs O(distinct tokens of that document)
whatever the size of the corpus.  Bulk loading and reopening a directory
apply the loaded documents the same way.  Readers never see that
writer-side instance: they get a :meth:`LiveStatistics.freeze` of it --
C-level copies of the tables and the document map, bound to pinned segment
snapshots of the same moment -- which no later write touches, so a query (or
a scoring model) may keep one generation for as long as it runs.  (Like any
snapshot, a generation keeps the segments of its moment alive, compacted
away or not, until its holders let go of it.)

The same class serves the live *sharded* path (the global collection is the
disjoint union of the shard collections), mirroring how
:class:`~repro.cluster.stats.AggregatedStatistics` serves static shards.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.index.statistics import ComplexityParameters, IndexStatistics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.index.postings import PostingList
    from repro.segments.manager import SegmentSnapshot


class _LiveIndexView:
    """The minimal index surface scoring reaches through ``statistics._index``.

    ``collection`` serves node content (norms, previews); ``snapshots`` (one
    per shard) serve the posting-level questions: per-token occurrence
    maxima and the physical lists behind the complexity parameters.
    """

    def __init__(
        self, collection: Collection, snapshots: "Sequence[SegmentSnapshot]"
    ) -> None:
        self.collection = collection
        self.snapshots = snapshots

    def posting_lists(self) -> "Iterator[PostingList]":
        for snapshot in self.snapshots:
            yield from snapshot.posting_lists()


class LiveStatistics(IndexStatistics):
    """Survivor statistics of a live index, maintained by revision deltas."""

    def __init__(
        self, collection: Collection, snapshots: "Sequence[SegmentSnapshot]" = ()
    ) -> None:
        # Deliberately no super().__init__: the parent scans physical posting
        # lists, which on a live index still contain tombstoned entries.  The
        # tables start empty; apply() is told about every document.
        self._index = _LiveIndexView(collection, snapshots)
        self._node_count = 0
        self._document_frequency: dict[str, int] = {}
        self._unique_tokens: dict[int, int] = {}
        self._node_lengths: dict[int, int] = {}
        self._max_occurrences = {}
        self._idf_cache = {}

    def apply(self, old: ContextNode | None, new: ContextNode | None) -> None:
        """Account for one document changing from ``old`` to ``new``.

        ``old is None`` is an add, ``new is None`` a delete, both given an
        update.  Writer-side only (callers hold the write lock): frozen
        generations are never applied to.
        """
        document_frequency = self._document_frequency
        if old is not None:
            for token in old.unique_tokens():
                remaining = document_frequency[token] - 1
                if remaining:
                    document_frequency[token] = remaining
                else:
                    del document_frequency[token]
            del self._unique_tokens[old.node_id]
            del self._node_lengths[old.node_id]
            self._node_count -= 1
        if new is not None:
            for token in new.unique_tokens():
                document_frequency[token] = document_frequency.get(token, 0) + 1
            self._unique_tokens[new.node_id] = new.unique_token_count()
            self._node_lengths[new.node_id] = len(new)
            self._node_count += 1

    def freeze(self, snapshots: "Sequence[SegmentSnapshot]") -> "LiveStatistics":
        """An immutable generation of these statistics for readers.

        Call with the write lock held, passing ``snapshots`` taken under the
        same hold, so that they pin exactly the documents the tables
        describe.  Freezing the document map (one atomic dict copy --
        documents themselves are immutable) lets a node deleted after this
        generation was cut still be scored by in-flight queries.
        """
        live = self._index.collection
        frozen = LiveStatistics(Collection(dict(live.nodes), live.name), snapshots)
        frozen._node_count = self._node_count
        frozen._document_frequency = dict(self._document_frequency)
        frozen._unique_tokens = dict(self._unique_tokens)
        frozen._node_lengths = dict(self._node_lengths)
        return frozen

    def _compute_max_occurrences(self, token: str) -> int:
        """Survivor-exact ``max_occurrences`` of one token.

        A maximum over the token's posting entries in the pinned snapshots,
        tombstoned entries left out -- work proportional to the token's own
        lists, paid once per generation and only for tokens that a query
        with top-k pruning names.  The pinned snapshots cannot go stale
        against this generation's frozen corpus (an under-estimated maximum
        would make the pruning silently inexact).
        """
        return max(
            (snapshot.max_occurrences(token) for snapshot in self._index.snapshots),
            default=0,
        )

    def complexity_parameters(self) -> ComplexityParameters:
        """The paper's data-size parameters for the live corpus.

        ``entries_per_token`` comes from the exact (survivor-based) document
        frequencies; ``pos_per_entry`` is a maximum over the physical
        per-segment lists, a tight upper bound that may count a tombstoned
        entry until the next compaction purges it.
        """
        pos_per_entry = [
            posting_list.max_positions_per_entry()
            for posting_list in self._index.posting_lists()
        ]
        return ComplexityParameters(
            cnodes=self._node_count,
            pos_per_cnode=max(self._node_lengths.values(), default=0),
            entries_per_token=max(self._document_frequency.values(), default=0),
            pos_per_entry=max(pos_per_entry, default=0),
        )
