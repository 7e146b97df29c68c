"""One staleness rule: every index's ``generation``, and every engine following it.

Every index type carries a ``generation`` that moves exactly when query
results may change -- an append; a live update or delete -- and never on a
flush or a compaction.  The engine's one coordinator reads it once per query:
a moved generation re-binds the scoring model to the fresh statistics, drops
the planner memo and keys the result cache past every entry from before the
write.  These tests pin

* the rule itself on the in-memory, sharded, packed and live indexes (live
  shards: ``tests/cluster/test_live_sharded.py``);
* its consequence on every facade shape that accepts writes: after a fixed
  sequence of appends (plus updates and deletes where supported) interleaved
  with searches, ``search`` and ``search_many`` answer exactly like an
  engine freshly built over the surviving documents -- same ids, scores
  equal under ``==``, same order, same match count -- and the optimizer
  re-plans after every write.
"""

from __future__ import annotations

import pytest

from repro.cluster import LiveShardedIndex, ShardedIndex
from repro.core.engine import FullTextEngine
from repro.corpus import Collection, ContextNode
from repro.exceptions import IndexError_
from repro.index import InvertedIndex, PackedInvertedIndex, save_packed_index
from repro.segments import LiveIndex

TEXTS = [
    "alpha beta gamma delta",
    "alpha alpha epsilon",
    "beta gamma gamma zeta",
    "delta epsilon alpha beta",
]
QUERIES = [
    "'alpha' OR 'beta'",
    "'alpha' AND 'beta'",
    "'gamma'",
    "'alpha' AND NOT 'gamma'",
    "dist('alpha', 'beta', 3)",
]
TOP_KS = (None, 2)


def documents() -> dict[int, str]:
    return dict(enumerate(TEXTS))


def collection_of(docs: dict[int, str]) -> Collection:
    return Collection.from_nodes(
        [ContextNode.from_text(node_id, text) for node_id, text in sorted(docs.items())],
        name="generation",
    )


def answers(engine: FullTextEngine) -> list:
    """Everything a user sees, through both entry points and both cuts."""
    seen = []
    for top_k in TOP_KS:
        singles = [engine.search(query, top_k=top_k) for query in QUERIES]
        batch = engine.search_many(QUERIES, top_k=top_k)
        for results in (*singles, *batch):
            seen.append(
                (
                    [(result.node_id, result.score) for result in results.results],
                    results.total_matches,
                )
            )
    return seen


def rebuilt_answers(docs: dict[int, str]) -> list:
    """The answers of an engine freshly built over ``docs``."""
    return answers(
        FullTextEngine(InvertedIndex(collection_of(docs)), scoring="tfidf")
    )


# --------------------------------------------------------------- the facade
#: Every facade shape that accepts writes, by id: (index builder, live?).
WRITABLE = {
    "inverted": (InvertedIndex, False),
    "sharded": (lambda collection: ShardedIndex(collection, 2), False),
    "live_index": (LiveIndex, True),
    "live_sharded": (lambda collection: LiveShardedIndex(collection, 2), True),
}


@pytest.mark.parametrize("optimizer", ["off", "on"])
@pytest.mark.parametrize("cache_size", [None, 16], ids=["uncached", "cached"])
@pytest.mark.parametrize("shape", WRITABLE)
def test_searches_after_writes_equal_a_rebuilt_engine(shape, cache_size, optimizer):
    build, live = WRITABLE[shape]
    docs = documents()
    engine = FullTextEngine(
        build(collection_of(docs)),
        scoring="tfidf",
        cache_size=cache_size,
        optimizer=optimizer,
    )

    def add(text: str) -> None:
        docs[engine.add_document(text)] = text

    def update(node_id: int, text: str) -> None:
        engine.update_document(node_id, text)
        docs[node_id] = text

    def delete(node_id: int) -> None:
        assert engine.delete_document(node_id)
        del docs[node_id]

    writes = [
        lambda: add("alpha beta alpha beta"),
        lambda: add("gamma alpha"),
    ]
    if live:
        writes += [lambda: update(1, "beta beta gamma"), lambda: delete(0)]
    writes.append(lambda: add("beta"))
    try:
        assert answers(engine) == rebuilt_answers(docs)
        for write in writes:
            plans_before = engine.optimizer_stats()["plans_built"]
            write()
            assert answers(engine) == rebuilt_answers(docs)
            if optimizer == "on":
                assert engine.optimizer_stats()["plans_built"] > plans_before
    finally:
        engine.close()


# ------------------------------------------------------------ the rule itself
@pytest.mark.parametrize(
    "build",
    [InvertedIndex, lambda collection: ShardedIndex(collection, 2)],
    ids=["inverted", "sharded"],
)
def test_a_static_index_moves_on_every_append(build):
    index = build(collection_of(documents()))
    assert index.generation == 0
    index.add_text("one more")
    index.add_text("and another")
    assert index.generation == 2
    with pytest.raises(IndexError_):
        index.add_node(ContextNode.from_text(0, "a taken id"))
    assert index.generation == 2


def test_a_packed_index_never_moves(tmp_path):
    save_packed_index(InvertedIndex(collection_of(documents())), tmp_path / "c.v4")
    with PackedInvertedIndex.open(tmp_path / "c.v4") as packed:
        assert packed.generation == 0
        with pytest.raises(IndexError_):
            packed.add_text("read-only")
        assert packed.generation == 0


def test_a_live_index_moves_on_writes_and_never_on_maintenance():
    index = LiveIndex(collection_of(documents()), flush_threshold=2)
    try:
        start = index.generation
        index.add_text("one more")
        index.update_text(1, "rewritten")
        assert index.delete_node(2)
        assert index.generation == start + 3
        assert not index.delete_node(2)  # nothing deleted: nothing changed
        index.flush()
        index.compact()
        assert index.generation == start + 3
    finally:
        index.close()
