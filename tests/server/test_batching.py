"""Unit tests for the micro-batching dispatcher.

Everything here drives :class:`BatchingDispatcher` directly on an asyncio
loop -- no sockets -- so the coalescing, the per-item equivalence with a
direct ``engine.search``, failure isolation and deadline semantics are
pinned down independently of the HTTP layer.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.exceptions import UnsupportedQueryError
from repro.model.predicates import FunctionPredicate
from repro.server.batching import (
    BatchingDispatcher,
    DeadlineExceeded,
    DispatcherClosed,
)
from repro.telemetry.trace import Trace

from harness import make_engine

QUERIES = [
    "'usability'",
    "'usability' AND 'software'",
    "'testing' OR 'efficient'",
    "dist('usability', 'software', 8)",
    "'interface' AND ('evaluation' OR 'usability')",
    "'software'",
]


@pytest.fixture(scope="module")
def engine(server_collection):
    engine = make_engine(server_collection)
    yield engine
    engine.close()


def run(coro):
    return asyncio.run(coro)


def results_key(results):
    """The equivalence triple: ids, exact scores, order."""
    return [(r.node_id, r.score) for r in results]


def test_concurrent_submits_coalesce_into_one_batch(engine):
    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=200.0)
        dispatcher.start()
        try:
            queries = [engine.parse(text) for text in QUERIES]
            answers = await asyncio.gather(
                *(dispatcher.submit(query, top_k=5) for query in queries)
            )
        finally:
            await dispatcher.stop()
        return answers, dispatcher.stats()

    answers, stats = run(main())
    # All six submits land within the linger window: exactly one engine call.
    assert stats["batches"] == 1
    assert stats["batched_requests"] == len(QUERIES)
    assert stats["max_batch_size_seen"] == len(QUERIES)
    for text, answer in zip(QUERIES, answers):
        direct = engine.search(text, top_k=5)
        assert len(results_key(answer)) > 0  # planted tokens: never empty
        assert results_key(answer) == results_key(direct)


def test_a_mixed_batch_answers_each_item_like_a_direct_search(engine):
    """Mixed ``top_k``, forced engines and an EXPLAIN item share one batch;
    every item equals ``engine.search`` called with its own arguments, and a
    traced item's engine spans nest inside its ``dispatch.batch`` span."""
    requests = [
        ("'usability' OR 'software'", 1, "auto", False),
        ("'usability' OR 'software'", 7, "auto", False),
        ("'usability' OR 'software'", None, "bool", False),
        ("'usability'", 4, "bool", False),
        ("'software'", 4, "ppred", False),
        ("dist('usability', 'software', 8)", 3, "npred", False),
        ("'usability' AND 'software'", 2, "auto", True),
    ]
    trace = Trace("mixed")

    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=200.0)
        dispatcher.start()
        try:
            answers = await asyncio.gather(
                *(
                    dispatcher.submit(
                        engine.parse(text), top_k=k, engine_choice=choice,
                        explain=explain, trace=trace if explain else None,
                    )
                    for text, k, choice, explain in requests
                )
            )
        finally:
            await dispatcher.stop()
        return answers, dispatcher.stats()

    answers, stats = run(main())
    assert stats["batches"] == 1
    assert stats["batched_requests"] == len(requests)
    for (text, k, choice, explain), answer in zip(requests, answers):
        direct = engine.search(text, engine=choice, top_k=k, explain=explain)
        assert results_key(answer) == results_key(direct)
        assert answer.total_matches == direct.total_matches
        assert answer.engine == direct.engine
        assert ("explain" in answer.metadata) is explain
        if explain:
            assert (
                answer.metadata["explain"]["cursor_totals"]
                == direct.metadata["explain"]["cursor_totals"]
            )
    (dispatch,) = trace.children
    assert dispatch.name == "dispatch.batch"
    assert dispatch.meta == {"batch_size": len(requests)}
    assert [child.name for child in dispatch.children] == ["scatter.shard"]


def test_each_traced_item_gets_its_own_dispatch_span(engine):
    """Two traced requests (one of them EXPLAIN) and an untraced one share a
    batch: each trace holds one ``dispatch.batch`` span with the batch size,
    nesting only its own search's engine span."""
    traces = [Trace("plain"), Trace("explained")]

    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=200.0)
        dispatcher.start()
        try:
            answers = await asyncio.gather(
                dispatcher.submit(engine.parse("'usability'"), top_k=3),
                dispatcher.submit(
                    engine.parse("'software'"), top_k=3, trace=traces[0]
                ),
                dispatcher.submit(
                    engine.parse("'testing' OR 'efficient'"), top_k=3,
                    explain=True, trace=traces[1],
                ),
            )
        finally:
            await dispatcher.stop()
        return answers, dispatcher.stats()

    answers, stats = run(main())
    assert stats["batches"] == 1
    assert stats["batched_requests"] == 3
    for trace in traces:
        (dispatch,) = trace.children
        assert dispatch.name == "dispatch.batch"
        assert dispatch.meta == {"batch_size": 3}
        assert [child.name for child in dispatch.children] == ["scatter.shard"]
    assert "explain" not in answers[1].metadata
    assert "explain" in answers[2].metadata


def test_max_batch_size_splits_batches(engine):
    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=2, max_linger_ms=200.0)
        dispatcher.start()
        try:
            queries = [engine.parse(text) for text in QUERIES]
            await asyncio.gather(
                *(dispatcher.submit(query, top_k=3) for query in queries)
            )
        finally:
            await dispatcher.stop()
        return dispatcher.stats()

    stats = run(main())
    assert stats["max_batch_size_seen"] <= 2
    assert stats["batches"] >= 3


def test_bad_query_does_not_fail_batch_neighbours(engine):
    """A query outside the forced engine's subset fails alone; its batch
    neighbour still answers correctly."""
    good_text = "'usability' AND 'software'"
    bad_text = "NOT 'usability'"  # PPRED cannot evaluate free-standing negation

    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=200.0)
        dispatcher.start()
        try:
            good = engine.parse(good_text)
            bad = engine.parse(bad_text)
            return await asyncio.gather(
                dispatcher.submit(good, top_k=5, engine_choice="ppred"),
                dispatcher.submit(bad, top_k=5, engine_choice="ppred"),
                return_exceptions=True,
            ), dispatcher.stats()
        finally:
            await dispatcher.stop()

    (good_answer, bad_answer), stats = run(main())
    assert results_key(good_answer) == results_key(
        engine.search(good_text, engine="ppred", top_k=5)
    )
    assert isinstance(bad_answer, UnsupportedQueryError)
    assert stats["batches"] == 1


def test_a_raising_predicate_fails_only_its_own_request(server_collection):
    """An exception that is not a ``ReproError`` -- here a user predicate
    dividing by zero -- rejects its own request and no other."""
    engine = make_engine(server_collection)
    engine.register_predicate(
        FunctionPredicate("broken", 2, lambda positions, constants: 1 / 0)
    )
    good_text = "'usability' AND 'software'"
    bad_text = (
        "SOME p1 SOME p2 (p1 HAS 'usability' AND p2 HAS 'software' "
        "AND broken(p1, p2))"
    )

    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=200.0)
        dispatcher.start()
        try:
            return await asyncio.gather(
                dispatcher.submit(engine.parse(good_text), top_k=5),
                dispatcher.submit(engine.parse(bad_text), top_k=5),
                return_exceptions=True,
            ), dispatcher.stats()
        finally:
            await dispatcher.stop()

    try:
        (good_answer, bad_answer), stats = run(main())
        assert stats["batches"] == 1
        assert not isinstance(good_answer, Exception), good_answer
        assert results_key(good_answer) == results_key(
            engine.search(good_text, top_k=5)
        )
        assert isinstance(bad_answer, ZeroDivisionError)
        with pytest.raises(ZeroDivisionError):
            engine.search(bad_text, top_k=5)
    finally:
        engine.close()


def test_expired_deadline_raises_deadline_exceeded(engine):
    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=50.0)
        dispatcher.start()
        try:
            query = engine.parse("'usability'")
            # A deadline already in the past: either the submit wait or the
            # in-queue expiry check must raise DeadlineExceeded.
            with pytest.raises(DeadlineExceeded):
                await dispatcher.submit(
                    query, top_k=5, deadline=time.monotonic() - 1.0
                )
        finally:
            await dispatcher.stop()

    run(main())


def test_stop_drains_queued_requests_then_rejects_new_ones(engine):
    async def main():
        dispatcher = BatchingDispatcher(engine, max_batch_size=32, max_linger_ms=500.0)
        dispatcher.start()
        query = engine.parse("'usability'")
        pending = asyncio.get_running_loop().create_task(
            dispatcher.submit(query, top_k=3)
        )
        await asyncio.sleep(0)  # let the submit enqueue before draining
        await dispatcher.stop()
        answer = await pending  # queued before stop: still answered
        with pytest.raises(DispatcherClosed):
            await dispatcher.submit(query, top_k=3)
        return answer

    answer = run(main())
    assert results_key(answer) == results_key(engine.search("'usability'", top_k=3))


def test_constructor_validates_parameters(engine):
    with pytest.raises(ValueError):
        BatchingDispatcher(engine, max_batch_size=0)
    with pytest.raises(ValueError):
        BatchingDispatcher(engine, max_linger_ms=-1.0)
