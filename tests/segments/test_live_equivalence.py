"""The live-index contract: any op interleaving == a fresh rebuild.

Acceptance test of the live-indexing subsystem: after *any* interleaving of
add / update / delete / flush / compact, a live index returns results
identical to a single-shot index freshly built from the surviving documents
-- node ids exactly, scores to 1e-9 -- for queries drawn by the
equivalence harness's generator, both cursor access modes, both scorers, at
shard counts {1, 4}.  Each index shape against the calculus is
``tests/equivalence``.

Two layers, mirroring the cluster equivalence suite:

* deterministic sweeps with a fixed, deliberately nasty op script (updates
  of sealed and memtable-resident nodes, deletes before and after flushes,
  compaction mid-stream);
* a hypothesis property over random op sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import FullTextEngine
from repro.corpus import Collection

from equivalence.generator import make_queries

#: Tokens every document draws from; "alpha"/"beta"/"gamma" are the planted
#: query tokens of the workload generator.
TOKENS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")

BASE_TEXTS = [
    "alpha beta gamma delta",
    "beta gamma delta epsilon",
    "gamma delta epsilon zeta",
    "alpha epsilon zeta beta",
    "zeta alpha alpha gamma",
    "delta beta epsilon epsilon",
]

#: Queries from the harness generator over this suite's tokens (BOOL,
#: dist, blocks with repeated and shadowed variables, COMP).
QUERIES = make_queries(7, 10, tokens=TOKENS[:4])

#: The deterministic op script: every mutation class against every segment
#: location (memtable-resident, sealed, already-updated), with maintenance
#: interleaved.
SCRIPT = [
    ("add", "zeta epsilon alpha"),
    ("update", 1, "beta beta gamma"),
    ("delete", 3),
    ("flush",),
    ("update", 0, "gamma zeta"),          # update of a sealed node
    ("add", "alpha delta delta"),
    ("delete", 2),                         # delete of a sealed node
    ("update", 0, "alpha beta gamma"),    # re-update of an updated node
    ("compact",),
    ("add", "beta zeta"),
    ("delete", 6),
    ("flush",),
    ("add", "gamma gamma alpha"),
]


def apply_ops(engine: FullTextEngine, ops) -> None:
    for op in ops:
        kind = op[0]
        if kind == "add":
            engine.add_document(op[1])
        elif kind == "update":
            ids = engine.collection.node_ids()
            if ids:
                engine.update_document(ids[op[1] % len(ids)], op[2])
        elif kind == "delete":
            ids = engine.collection.node_ids()
            if ids:
                engine.delete_document(ids[op[1] % len(ids)])
        elif kind == "flush":
            engine.flush()
        elif kind == "compact":
            engine.compact()
        else:  # pragma: no cover - guards against typos in scripts
            raise AssertionError(f"unknown op {op!r}")


def rebuilt_reference(live: FullTextEngine, shards, scoring, access_mode):
    survivors = sorted(live.collection, key=lambda node: node.node_id)
    return FullTextEngine.from_collection(
        Collection.from_nodes(survivors, "rebuilt"),
        scoring=scoring,
        access_mode=access_mode,
        shards=shards,
    )


def assert_equivalent(live: FullTextEngine, reference: FullTextEngine, query):
    expected = reference.search(query)
    got = live.search(query)
    assert got.node_ids == expected.node_ids, query
    for theirs, ours in zip(expected.results, got.results):
        assert ours.node_id == theirs.node_id
        assert ours.score == pytest.approx(theirs.score, abs=1e-9)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("access_mode", ["paper", "fast"])
@pytest.mark.parametrize("scoring", [None, "tfidf", "probabilistic"])
def test_script_equivalence(shards, access_mode, scoring):
    live = FullTextEngine.from_collection(
        Collection.from_texts(BASE_TEXTS),
        scoring=scoring,
        access_mode=access_mode,
        shards=shards,
        live=True,
        flush_threshold=3,
    )
    apply_ops(live, SCRIPT)
    reference = rebuilt_reference(live, shards, scoring, access_mode)
    try:
        for query in QUERIES:
            assert_equivalent(live, reference, query)
    finally:
        live.close()
        reference.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_script_equivalence_is_durable(tmp_path, shards):
    """The same contract holds after a close + reopen from disk."""
    directory = tmp_path / "cluster"
    live = FullTextEngine.from_collection(
        Collection.from_texts(BASE_TEXTS),
        scoring="tfidf",
        shards=shards,
        live=True,
        live_dir=directory,
        flush_threshold=3,
    )
    apply_ops(live, SCRIPT)
    survivors = sorted(live.collection, key=lambda node: node.node_id)
    live.close()

    if shards == 1:
        from repro.segments import LiveIndex

        index = LiveIndex.open(directory, flush_threshold=3)
    else:
        from repro.cluster import LiveShardedIndex

        index = LiveShardedIndex.open(directory, shards, flush_threshold=3)
    reopened = FullTextEngine(index, scoring="tfidf")
    reference = FullTextEngine.from_collection(
        Collection.from_nodes(survivors, "rebuilt"), scoring="tfidf", shards=shards
    )
    try:
        for query in QUERIES:
            assert_equivalent(reopened, reference, query)
    finally:
        reopened.close()
        reference.close()


def texts_strategy():
    return st.lists(
        st.sampled_from(TOKENS), min_size=1, max_size=6
    ).map(" ".join)


def ops_strategy():
    add = st.tuples(st.just("add"), texts_strategy())
    update = st.tuples(st.just("update"), st.integers(0, 30), texts_strategy())
    delete = st.tuples(st.just("delete"), st.integers(0, 30))
    flush = st.tuples(st.just("flush"))
    compact = st.tuples(st.just("compact"))
    return st.lists(
        st.one_of(add, update, delete, flush, compact), min_size=1, max_size=25
    )


@settings(max_examples=25, deadline=None)
@given(ops=ops_strategy(), shards=st.sampled_from([1, 4]),
       access_mode=st.sampled_from(["paper", "fast"]))
def test_random_op_sequences_match_fresh_rebuild(ops, shards, access_mode):
    live = FullTextEngine.from_collection(
        Collection.from_texts(BASE_TEXTS),
        scoring="tfidf",
        access_mode=access_mode,
        shards=shards,
        live=True,
        flush_threshold=2,
    )
    apply_ops(live, ops)
    reference = rebuilt_reference(live, shards, "tfidf", access_mode)
    try:
        for query in QUERIES:
            assert_equivalent(live, reference, query)
    finally:
        live.close()
        reference.close()
