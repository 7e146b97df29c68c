"""Live statistics and memtable views: exact, O(delta), and snapshot-isolated.

Four contracts of the write-then-read path of a live index:

* **differential** -- after any add / update / delete / flush / compact /
  close+reopen sequence, the incrementally maintained statistics equal the
  statistics of an ``InvertedIndex`` freshly built from the survivors,
  *exactly* (norms compared with ``==``), also across hash seeds;
* **work bound** -- what is computed between a write and the next answer
  does not grow with the corpus, proved by counting, not by timing;
* **lazy == eager** -- a memtable view builds lists for queried tokens only,
  and iterating it yields what the eager columnar build yields;
* **snapshot isolation** -- a statistics generation and a memtable view
  captured before a write keep reporting the old state, also under a
  concurrent writer.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import LiveShardedIndex
from repro.core.engine import FullTextEngine
from repro.corpus import Collection, ContextNode
from repro.index.inverted_index import InvertedIndex
from repro.index.postings import PostingList
from repro.segments import LiveIndex, MemTable
from repro.segments.sealed import SegmentData

TOKENS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
ABSENT = "missing"


def collect(cursor) -> list[int]:
    ids = []
    current = cursor.next_entry()
    while current is not None:
        ids.append(current)
        current = cursor.next_entry()
    return ids


def rebuilt(nodes) -> InvertedIndex:
    return InvertedIndex(
        Collection.from_nodes(sorted(nodes, key=lambda node: node.node_id))
    )


def assert_statistics_equal(stats, reference: InvertedIndex) -> None:
    """``stats`` describes exactly the corpus ``reference`` was built from."""
    expected = reference.statistics
    assert stats.node_count == expected.node_count
    assert stats.vocabulary() == expected.vocabulary()
    for token in (*TOKENS, ABSENT):
        assert stats.document_frequency(token) == expected.document_frequency(token)
        assert stats.idf(token) == expected.idf(token)
        assert stats.max_occurrences(token) == expected.max_occurrences(token)
    assert sorted(stats.collection.node_ids()) == reference.node_ids()
    for node_id in reference.node_ids():
        assert stats.node_length(node_id) == expected.node_length(node_id)
        assert stats.unique_token_count(node_id) == expected.unique_token_count(node_id)
        assert stats.node_l2_norm(node_id) == expected.node_l2_norm(node_id)


# ------------------------------------------------------------ differential
def open_index(directory: Path, shards: int):
    if shards == 1:
        return LiveIndex.open(directory, flush_threshold=2)
    return LiveShardedIndex.open(directory, shards, flush_threshold=2)


def run_ops_checking(ops, shards: int) -> list[str]:
    """Apply ``ops`` to a persisted live index, checking the statistics
    against a rebuild after every op; returns the final norms (hex)."""
    with tempfile.TemporaryDirectory() as tmp:
        index = open_index(Path(tmp), shards)
        try:
            for op in ops:
                kind = op[0]
                ids = index.collection.node_ids()
                if kind == "add":
                    index.add_text(op[1])
                elif kind == "update" and ids:
                    index.update_text(ids[op[1] % len(ids)], op[2])
                elif kind == "delete" and ids:
                    assert index.delete_node(ids[op[1] % len(ids)])
                elif kind == "flush":
                    index.flush()
                elif kind == "compact":
                    index.compact()
                elif kind == "reopen":
                    index.close()
                    index = open_index(Path(tmp), shards)
                reference = rebuilt(index.collection)
                assert_statistics_equal(index.statistics, reference)
                assert index.tokens() == reference.tokens()
                for token in (*TOKENS, ABSENT):
                    assert index.document_frequency(token) == (
                        reference.document_frequency(token)
                    )
            stats = index.statistics
            return [
                stats.node_l2_norm(node_id).hex()
                for node_id in index.collection.node_ids()
            ]
        finally:
            index.close()


def texts_strategy():
    return st.lists(st.sampled_from(TOKENS), min_size=1, max_size=6).map(" ".join)


def ops_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), texts_strategy()),
            st.tuples(st.just("update"), st.integers(0, 30), texts_strategy()),
            st.tuples(st.just("delete"), st.integers(0, 30)),
            st.tuples(st.just("flush")),
            st.tuples(st.just("compact")),
            st.tuples(st.just("reopen")),
        ),
        min_size=1,
        max_size=20,
    )


@settings(max_examples=30, deadline=None)
@given(ops=ops_strategy(), shards=st.sampled_from([1, 4]))
def test_maintained_statistics_equal_a_rebuild_of_the_survivors(ops, shards):
    run_ops_checking(ops, shards)


def test_live_membership_reads_the_maintained_table():
    live = LiveIndex(Collection.from_texts(["alpha beta", "beta gamma"]))
    assert "alpha" in live and ABSENT not in live
    live.delete_node(0)
    assert "alpha" not in live and live.tokens() == ["beta", "gamma"]
    live.close()


def hash_seed_child() -> None:
    """Run in a subprocess (see below): a fixed op stream on both flavours."""
    rng = random.Random(7)

    def text():
        return " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 6)))

    ops = []
    for _ in range(60):
        kind = rng.choice(
            ["add", "add", "update", "delete", "flush", "compact", "reopen"]
        )
        ops.append((kind, rng.randrange(30), text()) if kind != "add" else (kind, text()))
    for shards in (1, 4):
        print(shards, *run_ops_checking(ops, shards))


def test_maintained_statistics_do_not_depend_on_the_hash_seed():
    """The PR 8 trap: set order follows the hash seed, float sums follow set
    order.  The same op stream under two seeds must agree with its rebuild
    in each process and yield bit-identical norms across the processes."""
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            path
            for path in (str(Path(__file__).parent), env.get("PYTHONPATH"), *sys.path)
            if path
        )
        outputs.append(
            subprocess.run(
                [sys.executable, "-c",
                 "import test_live_statistics as t; t.hash_seed_child()"],
                env=env, capture_output=True, text=True, check=True, timeout=300,
            ).stdout
        )
    assert outputs[0] and outputs[0] == outputs[1]


# -------------------------------------------------------------- work bound
HIT_TEXTS = [f"alpha beta gamma hit{i}" for i in range(6)]


def counted_write_then_read(monkeypatch, filler_docs: int):
    """One add, then one scored top-k query, on ``filler_docs`` + 6 documents:
    which nodes had their token map consulted, which posting entries were
    built, and which memtable lists exist afterwards."""
    texts = [f"filler{i % 40} pad{i % 7} common" for i in range(filler_docs)]
    engine = FullTextEngine.from_collection(
        Collection.from_texts(texts + HIT_TEXTS),
        scoring="tfidf",
        access_mode="fast",
        live=True,
        flush_threshold=64,
    )
    query = "'alpha' AND 'beta'"
    engine.search(query, top_k=3)  # warm: plans, per-node caches of the hits
    visited: list[int] = []
    built: list[tuple[str, int]] = []
    token_positions = ContextNode._token_positions
    add_occurrences = PostingList.add_occurrences

    def counting_token_positions(node):
        visited.append(node.node_id)
        return token_positions(node)

    def counting_add_occurrences(posting_list, node_id, positions):
        built.append((posting_list.token, node_id))
        return add_occurrences(posting_list, node_id, positions)

    monkeypatch.setattr(ContextNode, "_token_positions", counting_token_positions)
    monkeypatch.setattr(PostingList, "add_occurrences", counting_add_occurrences)
    try:
        new_id = engine.add_document("alpha beta epsilon zeta")
        results = engine.search(query, top_k=3)
    finally:
        monkeypatch.undo()
    assert results.total_matches == len(HIT_TEXTS) + 1
    hits = set(range(filler_docs, filler_docs + len(HIT_TEXTS))) | {new_id}
    memview = engine.index.snapshot().memview
    engine.close()
    return visited, built, hits, new_id, memview


def test_work_between_a_write_and_the_answer_does_not_grow_with_the_corpus(
    monkeypatch,
):
    small = counted_write_then_read(monkeypatch, 300)
    large = counted_write_then_read(monkeypatch, 1200)
    for visited, built, hits, new_id, memview in (small, large):
        # Only the written document and the documents the query scores.
        assert set(visited) <= hits
        # Posting entries: memtable documents (1) x query tokens (2).
        assert sorted(built) == [("alpha", new_id), ("beta", new_id)]
        assert memview.node_ids() == [new_id]
    # The same work at 4x the corpus (node ids differ, the counts must not).
    assert len(small[0]) == len(large[0])
    assert len(small[1]) == len(large[1])
    assert len(small[0]) <= len(small[2]) * 4  # a few lookups per scored node


# ------------------------------------------------------------ lazy == eager
def memtable_with(*texts: str) -> MemTable:
    table = MemTable()
    for node_id, text in enumerate(texts):
        table.add(ContextNode.from_text(3 * node_id + 1, text))
    return table


def test_memtable_view_builds_lists_for_requested_tokens_only(monkeypatch):
    table = memtable_with("alpha beta alpha", "gamma beta", "delta")
    view = table.frozen_view()
    built: list[str] = []
    add_occurrences = PostingList.add_occurrences

    def counting(posting_list, node_id, positions):
        built.append(posting_list.token)
        return add_occurrences(posting_list, node_id, positions)

    monkeypatch.setattr(PostingList, "add_occurrences", counting)
    assert view.lists.get("beta").node_ids() == [1, 4]
    assert view.lists.get(ABSENT) is None and ABSENT not in view.lists
    assert view.lists["beta"] is view.lists.get("beta")  # built once
    with pytest.raises(KeyError):
        view.lists[ABSENT]
    assert set(built) == {"beta"} and len(built) == 2


def test_iterating_a_memtable_view_yields_the_eager_build():
    table = memtable_with(
        "alpha beta alpha. gamma", "gamma beta\n\nzeta alpha", "delta", "beta"
    )
    view = table.frozen_view()
    view.lists.get("gamma")  # a list built before the iteration is reused
    eager = SegmentData({node.node_id: node for node in table.documents()})
    assert list(view.lists) == list(eager.lists) == view.lists.keys()
    assert len(view.lists) == len(eager.lists)
    for (token, lazy), (eager_token, built) in zip(
        view.lists.items(), eager.lists.items()
    ):
        assert token == eager_token == lazy.token
        assert lazy.entries() == built.entries()
    assert [pl.token for pl in view.lists.values()] == list(eager.lists)
    assert view.any_list.entries() == eager.any_list.entries()
    assert view.node_ids() == eager.node_ids()
    assert view.position_count == eager.position_count
    assert view.memory_breakdown() == eager.memory_breakdown()
    assert [node.node_id for node in view.documents()] == eager.node_ids()


def test_sealing_still_builds_eager_segment_data():
    live = LiveIndex(flush_threshold=2)
    live.add_text("alpha beta")
    live.add_text("beta gamma")  # reaches the threshold: sealed
    (segment,) = live.manager.segments
    assert type(segment.data) is SegmentData
    assert sorted(segment.data.lists) == ["alpha", "beta", "gamma"]
    assert live.snapshot().memview is None
    live.close()


# ------------------------------------------------------- snapshot isolation
def observed(stats) -> dict:
    return {
        "count": stats.node_count,
        "df": {token: stats.document_frequency(token) for token in TOKENS},
        "idf": {token: stats.idf(token) for token in TOKENS},
        "max": {token: stats.max_occurrences(token) for token in TOKENS},
        "norms": {
            node_id: stats.node_l2_norm(node_id)
            for node_id in stats.collection.node_ids()
        },
    }


@pytest.mark.parametrize("shards", [1, 4])
def test_statistics_generation_is_immutable_across_later_writes(shards):
    texts = ["alpha alpha beta", "beta gamma", "gamma gamma gamma delta", "zeta"]
    if shards == 1:
        live = LiveIndex(Collection.from_texts(texts), flush_threshold=2)
    else:
        live = LiveShardedIndex(Collection.from_texts(texts), shards, flush_threshold=2)
    live.add_text("alpha epsilon")  # something in a memtable
    stats = live.statistics
    reference = rebuilt(live.collection)
    # Everything but the occurrence maxima is computed *after* the writes
    # below: a lazily answered question must still describe the old corpus.
    max_before = {token: stats.max_occurrences(token) for token in TOKENS[:3]}
    live.delete_node(2)                    # held the gamma maximum
    live.update_text(0, "zeta zeta zeta zeta")
    live.add_text("alpha alpha alpha alpha beta")
    live.flush()
    live.delete_node(1)
    live.compact()
    live.add_text("delta delta")
    assert live.statistics is not stats
    assert {token: stats.max_occurrences(token) for token in TOKENS[:3]} == max_before
    assert_statistics_equal(stats, reference)
    assert_statistics_equal(live.statistics, rebuilt(live.collection))
    assert observed(stats) != observed(live.statistics)
    live.close()


def test_memtable_view_survives_later_writes_seals_and_compactions():
    live = LiveIndex(Collection.from_texts(["alpha beta"]), flush_threshold=3)
    live.add_text("beta gamma")
    live.add_text("gamma gamma delta")
    snapshot = live.snapshot()
    view = snapshot.memview
    assert view.lists.get("gamma").node_ids() == [1, 2]
    live.update_text(1, "zeta")
    live.delete_node(2)
    live.add_text("beta beta")
    live.add_text("beta")  # seals
    live.compact()
    assert live.snapshot().memview is not view
    # Lists asked for before and -- lazily -- after the writes: the old state.
    assert view.lists.get("gamma").node_ids() == [1, 2]
    assert view.lists.get("beta").node_ids() == [1]
    assert view.lists.get("zeta") is None
    assert view.any_list.node_ids() == [1, 2]
    assert collect(snapshot.open_cursor("beta")) == [0, 1]
    assert collect(live.open_cursor("beta")) == [0, 3, 4]
    live.close()


def test_generations_stay_exact_under_a_concurrent_writer():
    """One writer, three readers, >= 2 s: every (statistics, snapshot) pair a
    reader captures equals a rebuild of that snapshot's survivors, however
    many writes, seals and compactions land while it is being checked."""
    live = LiveIndex(
        Collection.from_texts([" ".join(TOKENS[i % 6:] + TOKENS[:2]) for i in range(12)]),
        flush_threshold=4,
    )
    stop = threading.Event()
    errors: list[BaseException] = []
    checked = [0, 0, 0]

    def writer():
        rng = random.Random(11)
        try:
            while not stop.is_set():
                ids = live.collection.node_ids()
                text = " ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 8)))
                roll = rng.random()
                if roll < 0.35 or len(ids) < 8:
                    live.add_text(text)
                elif roll < 0.65:
                    live.update_text(rng.choice(ids), text)
                elif roll < 0.9 or len(ids) > 40:
                    live.delete_node(rng.choice(ids))
                elif roll < 0.95:
                    live.flush()
                else:
                    live.compact()
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    def reader(slot: int):
        try:
            while not stop.is_set():
                with live.manager.lock:
                    stats, snapshot = live.statistics, live.snapshot()
                reference = rebuilt(snapshot.documents())
                assert_statistics_equal(stats, reference)
                for token in TOKENS:
                    assert collect(snapshot.open_cursor(token, mode="fast")) == (
                        reference.posting_list(token).node_ids()
                    )
                checked[slot] += 1
        except BaseException as exc:  # noqa: BLE001 - reported by the test
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(slot,)) for slot in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        time.sleep(2.0)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    live.close()
    assert not errors, errors[0]
    assert all(count > 0 for count in checked)
    assert live.generation > 50  # the writer really was writing meanwhile
