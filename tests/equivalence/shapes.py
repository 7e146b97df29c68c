"""The product shapes a query can run on, one list for every suite.

A :class:`Shape` names one way of building a :class:`FullTextEngine` over a
corpus and one way of asking it a query.  Every shape must return the
calculus's node ids, and the ids, scores and order of the reference shape
(in-memory, paper mode, optimizer off) with the same scoring model; a
``top_k`` cut must be that ranking's prefix.

To add a shape, append it to :data:`SHAPES`.  When an axis leaves the
product (an access mode, the optimizer, the live/static split), its values
leave this list and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import LiveShardedIndex, ShardedIndex
from repro.core.engine import FullTextEngine
from repro.corpus import Collection
from repro.index import InvertedIndex, PackedInvertedIndex, save_packed_index
from repro.segments import LiveIndex

#: A text dense in every query token: the live shapes seal, update and
#: delete it, so a tombstone that stops filtering changes answers.
DECOY = "alpha beta gamma delta. alpha beta gamma delta alpha.\n\nbeta gamma alpha."


@dataclass(frozen=True)
class Shape:
    name: str
    #: ``memory``, ``packed`` (mmap v4 file), ``sharded`` (static shards),
    #: ``live`` or ``live-sharded`` (segments with updates, deletes and
    #: tombstones).
    index: str = "memory"
    shards: int = 1
    partitioner: str = "hash"
    access_mode: str = "paper"
    optimizer: str = "off"
    scoring: "str | None" = "tfidf"
    #: ``auto`` or a forced engine (run on the queries it can plan).
    engine: str = "auto"
    #: how the query is asked: ``ast``, ``text`` (parsed by the facade),
    #: ``commuted`` (every AND/OR operand pair swapped) or ``explain``.
    entry: str = "ast"
    cache_size: "int | None" = None
    top_k: int = 3

    def build(self, texts: list[str], directory) -> FullTextEngine:
        options = dict(
            scoring=self.scoring,
            access_mode=self.access_mode,
            optimizer=self.optimizer,
            cache_size=self.cache_size,
        )
        if self.index.startswith("live"):
            return _live(self, texts, options)
        collection = Collection.from_texts(texts)
        if self.index == "packed":
            path = directory / f"{self.name}.v4"
            save_packed_index(InvertedIndex(collection), path)
            index = PackedInvertedIndex.open(path)
        elif self.index == "sharded":
            index = ShardedIndex(collection, self.shards, self.partitioner)
        else:
            index = InvertedIndex(collection)
        return FullTextEngine(index, **options)


def _live(shape: Shape, texts: list[str], options: dict) -> FullTextEngine:
    """A live index whose survivors are exactly ``texts``, reached through
    sealed segments, in-place updates of sealed nodes, and deletes of
    sealed and memtable-resident nodes (their tombstones left in place)."""
    start = Collection.from_texts(
        [DECOY if node_id % 4 == 1 else text for node_id, text in enumerate(texts)]
    )
    if shape.index == "live-sharded":
        index = LiveShardedIndex(start, shape.shards, shape.partitioner, flush_threshold=4)
    else:
        index = LiveIndex(start, flush_threshold=4)
    engine = FullTextEngine(index, **options)
    extra = [engine.add_document(DECOY) for _ in range(3)]
    engine.flush()
    for node_id in range(1, len(texts), 4):
        engine.update_document(node_id, texts[node_id])
    for node_id in extra:
        engine.delete_document(node_id)
    engine.delete_document(engine.add_document(DECOY))
    return engine


SHAPES = (
    Shape("memory"),
    Shape("fast", access_mode="fast", top_k=1),
    Shape("optimizer", optimizer="on", entry="commuted"),
    Shape("fast-optimizer", access_mode="fast", optimizer="on", entry="text"),
    Shape("explain", access_mode="fast", entry="explain", top_k=5),
    Shape("cached", cache_size=32, entry="text"),
    Shape("forced-npred", engine="npred", access_mode="fast"),
    Shape("packed", index="packed", access_mode="fast"),
    Shape("packed-paper", index="packed", entry="explain", cache_size=32),
    Shape("live", index="live", access_mode="fast", top_k=1),
    Shape("live-optimizer", index="live", optimizer="on", cache_size=32),
    Shape("sharded-1", index="sharded"),
    Shape("sharded-2", index="sharded", shards=2, partitioner="round-robin"),
    Shape("sharded-4", index="sharded", shards=4, access_mode="fast", entry="text"),
    Shape("sharded-7", index="sharded", shards=7, optimizer="on", cache_size=32),
    Shape("live-sharded-1", index="live-sharded", access_mode="fast"),
    Shape("live-sharded-2", index="live-sharded", shards=2, entry="explain"),
    Shape("live-sharded-4", index="live-sharded", shards=4, access_mode="fast",
          top_k=2),
    Shape("live-sharded-7", index="live-sharded", shards=7, cache_size=32),
    Shape("probabilistic", scoring="probabilistic"),
    Shape("probabilistic-sharded-4", index="sharded", shards=4, scoring="probabilistic",
          access_mode="fast", optimizer="on"),
    Shape("probabilistic-live", index="live", scoring="probabilistic", top_k=1),
    Shape("unscored", scoring=None, access_mode="fast"),
    Shape("unscored-live-sharded-4", index="live-sharded", shards=4, scoring=None),
)
