"""Tests for the multi-process scatter path (``workers="process"``).

The tentpole contract: process-pool scatter returns results byte-identical
to the thread pool (ids, bit-identical scores, order, cursor statistics),
caching and incremental appends keep working (an append respills and
restarts the pool), and the mode fails loudly where its memory model cannot
hold -- live shards or scoring models the workers cannot rebuild by name.
"""

from __future__ import annotations

import pytest

from repro.cluster import ScatterGatherExecutor, ShardedIndex
from repro.cluster.live import LiveShardedIndex
from repro.core.query import parse_query
from repro.corpus import Collection
from repro.exceptions import ClusterError, ScoringError
from repro.scoring.base import ScoringModel

TEXTS = [
    "usability testing of efficient software",
    "software measures how well users achieve task completion",
    "efficient task completion with usability in mind",
    "databases support full text search with inverted lists",
    "networks route packets between hosts efficiently",
    "software usability and software testing",
    "usability of software task completion software",
    "efficient inverted lists for efficient search",
]

QUERIES = [
    "'software'",
    "'software' AND 'usability'",
    "'efficient' AND NOT 'networks'",
    "dist('task', 'completion', 2)",
]


def _collection() -> Collection:
    return Collection.from_texts(TEXTS, name="process-scatter")


def _row(result):
    stats = result.cursor_stats
    return (
        result.node_ids,
        result.ranked(),
        result.language_class,
        result.engine,
        stats.as_extended_dict() if stats is not None else None,
    )


@pytest.mark.parametrize("num_shards", [1, 2])
def test_process_results_match_thread_results(num_shards):
    thread = ScatterGatherExecutor(
        ShardedIndex(_collection(), num_shards), scoring="tfidf", cache_size=None
    )
    process = ScatterGatherExecutor(
        ShardedIndex(_collection(), num_shards),
        scoring="tfidf",
        cache_size=None,
        workers="process",
    )
    try:
        for text in QUERIES:
            query = parse_query(text).node
            for top_k in (None, 3):
                expected = thread.execute(query, top_k=top_k)
                actual = process.execute(query, top_k=top_k)
                assert _row(actual) == _row(expected), text
    finally:
        thread.close()
        process.close()


def test_process_execute_many_matches_thread():
    thread = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), scoring="tfidf", cache_size=None
    )
    process = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2),
        scoring="tfidf",
        cache_size=None,
        workers="process",
    )
    try:
        queries = [parse_query(text).node for text in QUERIES]
        expected = thread.execute_many(queries, top_k=3)
        actual = process.execute_many(queries, top_k=3)
        assert [_row(r) for r in actual] == [_row(r) for r in expected]
    finally:
        thread.close()
        process.close()


def test_process_mode_serves_cache_hits():
    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), scoring="tfidf", workers="process"
    )
    try:
        query = parse_query("'software' AND 'usability'").node
        first = executor.execute(query)
        second = executor.execute(query)
        assert not first.from_cache
        assert second.from_cache
        assert second.node_ids == first.node_ids
        assert second.ranked() == first.ranked()
    finally:
        executor.close()


def test_append_respills_and_results_stay_equal():
    thread_index = ShardedIndex(_collection(), 2)
    process_index = ShardedIndex(_collection(), 2)
    thread = ScatterGatherExecutor(thread_index, scoring="tfidf", cache_size=None)
    process = ScatterGatherExecutor(
        process_index, scoring="tfidf", cache_size=None, workers="process"
    )
    try:
        query = parse_query("'software'").node
        assert _row(process.execute(query)) == _row(thread.execute(query))
        new_text = "fresh software document about search"
        thread_index.add_text(new_text)
        process_index.add_text(new_text)
        expected = thread.execute(query)
        actual = process.execute(query)
        assert max(actual.node_ids) == len(TEXTS)  # the append is visible
        assert _row(actual) == _row(expected)
    finally:
        thread.close()
        process.close()


def test_explicit_spool_dir_is_used_and_kept(tmp_path):
    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2),
        cache_size=None,
        workers="process",
        spool_dir=tmp_path,
    )
    try:
        executor.execute(parse_query("'software'").node)
        spilled = sorted(tmp_path.glob("epoch-*/shard-*.seg"))
        assert len(spilled) == 2
    finally:
        executor.close()
    assert tmp_path.exists()  # caller-owned directory is not deleted


def test_close_is_idempotent_and_removes_owned_spool():
    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), cache_size=None, workers="process"
    )
    executor.execute(parse_query("'software'").node)
    spool = executor._spool_root
    assert spool is not None and spool.exists()
    executor.close()
    assert not spool.exists()
    executor.close()  # second close is a no-op


def test_live_sharded_index_is_rejected():
    with pytest.raises(ClusterError, match="static"):
        ScatterGatherExecutor(
            LiveShardedIndex(_collection(), 2), workers="process"
        )


def test_unregistered_scoring_model_is_rejected():
    class LocalModel(ScoringModel):
        name = "local-unregistered"

        def score(self, query, node_id):  # pragma: no cover - never called
            return 0.0

    index = ShardedIndex(_collection(), 2)
    with pytest.raises(ScoringError, match="local-unregistered"):
        ScatterGatherExecutor(index, scoring=LocalModel(index.statistics),
                              workers="process")


def test_unknown_workers_mode_is_rejected():
    with pytest.raises(ClusterError, match="unknown workers mode"):
        ScatterGatherExecutor(ShardedIndex(_collection(), 2), workers="fiber")


# ---------------------------------------------------------------------------
# Spool leak protection: every spilled spool directory is registered for
# cleanup at interpreter exit and on SIGTERM, not just in close().
# ---------------------------------------------------------------------------


def test_spool_is_registered_while_open_and_unregistered_on_close():
    from repro.cluster import scatter

    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), cache_size=None, workers="process"
    )
    try:
        executor.execute(parse_query("'software'").node)
        spool = executor._spool_root
        assert str(spool) in scatter._SPOOL_REGISTRY
    finally:
        executor.close()
    assert str(spool) not in scatter._SPOOL_REGISTRY


def test_cleanup_registered_spools_sweeps_leaked_directories():
    from repro.cluster import scatter

    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), cache_size=None, workers="process"
    )
    try:
        executor.execute(parse_query("'software'").node)
        spool = executor._spool_root
        assert spool.exists()
        # Simulate an exit path that never reached close(): the atexit hook
        # calls exactly this function.
        scatter.cleanup_registered_spools()
        assert not spool.exists()
        assert str(spool) not in scatter._SPOOL_REGISTRY
        scatter.cleanup_registered_spools()  # idempotent
    finally:
        executor.close()  # still safe after the sweep


def _alive(pid: int) -> bool:
    import os

    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_pool_is_registered_while_open_and_unregistered_on_close():
    from repro.cluster import scatter

    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), cache_size=None, workers="process"
    )
    try:
        executor.execute(parse_query("'software'").node)
        pool = executor._process_pool
        assert pool in scatter._LIVE_POOLS
    finally:
        executor.close()
    assert pool not in scatter._LIVE_POOLS


def test_terminate_registered_pools_reaps_the_workers():
    from repro.cluster import scatter

    executor = ScatterGatherExecutor(
        ShardedIndex(_collection(), 2), cache_size=None, workers="process"
    )
    try:
        executor.execute(parse_query("'software'").node)
        workers = list(executor._process_pool._processes)
        assert workers and all(_alive(pid) for pid in workers)
        # Exactly what the SIGTERM handler runs after sweeping the spools.
        # (Checked by pid: the pool's own manager thread may reap a worker
        # first, which makes ``Process.is_alive`` briefly unreliable.)
        scatter.terminate_registered_pools()
        assert not any(_alive(pid) for pid in workers)
        assert executor._process_pool not in scatter._LIVE_POOLS
    finally:
        executor.close()  # still safe after the sweep


def _sigterm_child(spool_dir=None):
    """Run a process-scatter child, SIGTERM it, and report what survived.

    Returns ``(returncode, spool, survivors)``: the child's exit status, its
    spool directory and the worker pids still alive afterwards.
    """
    import os
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    script = """
import sys, time
from repro.cluster import ScatterGatherExecutor, ShardedIndex
from repro.core.query import parse_query
from repro.corpus import Collection

collection = Collection.from_texts([
    "usability testing of efficient software",
    "software measures task completion",
], name="sigterm-spool")
executor = ScatterGatherExecutor(
    ShardedIndex(collection, 2), cache_size=None, workers="process",
    spool_dir=sys.argv[1] if len(sys.argv) > 1 else None,
)
executor.execute(parse_query("'software'").node)
print(executor._spool_root, flush=True)
print(" ".join(str(pid) for pid in executor._process_pool._processes), flush=True)
while True:
    time.sleep(0.1)
"""
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=repo_src, PYTHONUNBUFFERED="1")
    arguments = [str(spool_dir)] if spool_dir is not None else []
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *arguments],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    workers: list[int] = []
    try:
        spool = Path(proc.stdout.readline().strip())
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert spool.exists()
        assert workers and all(_alive(pid) for pid in workers)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in workers:  # never leave orphans behind, even on failure
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    return proc.returncode, spool, survivors


def test_sigterm_removes_spool_directory():
    """A SIGTERM'd process must not leak its spool files or its workers."""
    import signal

    returncode, spool, survivors = _sigterm_child()
    assert returncode == -signal.SIGTERM  # conventional termination
    assert not spool.exists()
    assert survivors == []  # the pool's workers died with their parent


def test_sigterm_stops_workers_of_a_caller_owned_spool(tmp_path):
    """No spool is registered for a caller-owned directory, but the pool
    still is: its workers must not outlive a SIGTERM'd parent either."""
    import signal

    returncode, spool, survivors = _sigterm_child(spool_dir=tmp_path)
    assert returncode == -signal.SIGTERM
    assert spool == tmp_path and spool.exists()  # the caller's, so kept
    assert survivors == []
