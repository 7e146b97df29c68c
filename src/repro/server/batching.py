"""Micro-batching of concurrent search requests onto the engine thread.

The engine stack is fast but strictly single-caller (see
:class:`~repro.cluster.scatter.ScatterGatherExecutor`), so an HTTP server
cannot simply call ``engine.search`` from every connection handler.  The
:class:`BatchingDispatcher` turns that constraint into a win:

* every ``/search`` request becomes a :class:`SearchItem` on an asyncio
  queue;
* one dispatcher coroutine drains the queue into batches -- up to
  ``max_batch_size`` items, waiting at most ``max_linger_ms`` for
  stragglers once the first item arrives -- and runs each batch as a single
  :meth:`~repro.core.engine.FullTextEngine.search_many` call on a dedicated
  worker thread (the event loop never blocks on evaluation);
* ``search_many`` amortises the cursor factory and plan cache across the
  batch, and fans the *whole batch* out to each shard in turn, so
  coalescing is cheaper than per-request dispatch even before caching.

**Equivalence contract.**  Requests in one batch may ask for different
``top_k`` values, while ``search_many`` takes a single cut.  The batch runs
at the *widest* requested ``k`` (or unbounded if any request wants the full
ranking) and each answer is narrowed with ``SearchResults.top(k)``.  Exact
top-k rankings are prefixes of each other -- the same contract the query
cache relies on (:meth:`ScatterGatherExecutor._covers`) -- so every client
receives results bit-identical in ids, scores and order to a direct
``engine.search(query, top_k=k)``.

**Failure isolation.**  Queries are parsed *before* they enter the queue, so
syntax errors never reach a batch.  If a batch still fails during
evaluation (for example a query outside the forced engine's subset), the
dispatcher retries each item individually: one poisoned query answers with
its own error instead of failing its batch neighbours.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.query import Query
from repro.core.results import SearchResults
from repro.exceptions import ReproError


def _swallow_outcome(future: "asyncio.Future") -> None:
    """Retrieve an abandoned future's exception so asyncio does not warn."""
    if not future.cancelled():
        future.exception()


class DeadlineExceeded(ReproError):
    """A request's deadline expired before its results were produced."""


class DispatcherClosed(ReproError):
    """The dispatcher is draining or stopped and accepts no new requests."""


@dataclass
class SearchItem:
    """One pending search request travelling through the dispatcher."""

    query: Query
    top_k: int | None
    engine_choice: str
    #: Absolute ``time.monotonic()`` deadline, or ``None`` for no deadline.
    deadline: float | None
    future: "asyncio.Future[SearchResults]" = field(repr=False, default=None)
    #: EXPLAIN ANALYZE requests run individually (``search_many`` carries no
    #: per-item explain flag) so their per-operator counts are theirs alone.
    explain: bool = False
    #: Request trace; receives dispatcher and engine spans when set.
    trace: object | None = field(repr=False, default=None)

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


class BatchingDispatcher:
    """Coalesce concurrent searches into ``search_many`` batches."""

    def __init__(
        self,
        engine,
        *,
        max_batch_size: int = 32,
        max_linger_ms: float = 2.0,
        engine_pool: ThreadPoolExecutor | None = None,
        pending_probe=None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_linger_ms < 0:
            raise ValueError(f"max_linger_ms must be >= 0, got {max_linger_ms}")
        self.engine = engine
        self.max_batch_size = max_batch_size
        self.max_linger_ms = max_linger_ms
        #: Optional adaptive-linger hook: a callable returning how many
        #: requests are currently admitted but unanswered.  Once the batch
        #: holds every pending request there is nothing to linger for --
        #: closed-loop clients cannot send their next request until this
        #: batch answers -- so the dispatcher executes immediately instead
        #: of burning the full linger window.
        self._pending_probe = pending_probe
        # The single engine worker thread: it both serialises access to the
        # (single-caller) engine and keeps evaluation off the event loop.
        self._engine_pool = engine_pool or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self._owns_pool = engine_pool is None
        self._queue: "asyncio.Queue[SearchItem | None]" = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._closed = False
        # Batch-shape statistics (all touched from the event-loop thread).
        self._batches = 0
        self._batched_requests = 0
        self._max_batch = 0
        self._individual_retries = 0
        self._expired_in_queue = 0

    # ------------------------------------------------------------ lifecycle
    def start(self) -> None:
        """Start the dispatcher coroutine on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-batch-dispatcher"
            )

    async def stop(self) -> None:
        """Drain every queued request, then stop the dispatcher (idempotent).

        Items already queued are still evaluated -- this is what lets the
        server's SIGTERM drain finish in-flight requests -- but new
        :meth:`submit` calls fail with :class:`DispatcherClosed`.
        """
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            await self._queue.put(None)  # sentinel: drain up to here, then exit
            await self._task
            self._task = None
        if self._owns_pool:
            self._engine_pool.shutdown(wait=True)

    # ------------------------------------------------------------------ API
    async def submit(
        self,
        query: Query,
        top_k: int | None,
        *,
        engine_choice: str = "auto",
        deadline: float | None = None,
        explain: bool = False,
        trace: object | None = None,
    ) -> SearchResults:
        """Enqueue one parsed query and await its results.

        Raises :class:`DeadlineExceeded` when the deadline passes first (the
        batch keeps running; its result is discarded for this caller) and
        :class:`DispatcherClosed` once the server is draining.
        """
        if self._closed:
            raise DispatcherClosed("server is draining; not accepting new queries")
        if self._task is None:
            raise DispatcherClosed("dispatcher is not running")
        loop = asyncio.get_running_loop()
        item = SearchItem(
            query=query,
            top_k=top_k,
            engine_choice=engine_choice,
            deadline=deadline,
            future=loop.create_future(),
            explain=explain,
            trace=trace,
        )
        await self._queue.put(item)
        if deadline is None:
            return await item.future
        remaining = deadline - time.monotonic()
        try:
            return await asyncio.wait_for(asyncio.shield(item.future), max(remaining, 0.0))
        except asyncio.TimeoutError:
            # The batch keeps running and will still resolve the future;
            # mark its eventual outcome as consumed so asyncio never logs
            # "exception was never retrieved" for an abandoned request.
            item.future.add_done_callback(_swallow_outcome)
            raise DeadlineExceeded(
                f"deadline exceeded after waiting for results of "
                f"{item.query.text!r}"
            ) from None

    def stats(self) -> dict[str, float]:
        """Batch-shape counters for ``/stats``."""
        return {
            "batches": self._batches,
            "batched_requests": self._batched_requests,
            "max_batch_size_seen": self._max_batch,
            "mean_batch_size": (
                self._batched_requests / self._batches if self._batches else 0.0
            ),
            "individual_retries": self._individual_retries,
            "expired_in_queue": self._expired_in_queue,
        }

    # ------------------------------------------------------------ internals
    async def _run(self) -> None:
        while True:
            head = await self._queue.get()
            if head is None:
                return
            batch = [head]
            batch_done = self._collect(batch)
            if not batch_done and self.max_linger_ms > 0:
                # Linger briefly for stragglers: the whole point of
                # micro-batching is that requests arriving within a couple
                # of milliseconds of each other share one engine call.
                deadline = time.monotonic() + self.max_linger_ms / 1000.0
                while len(batch) < self.max_batch_size:
                    if (
                        self._pending_probe is not None
                        and len(batch) >= self._pending_probe()
                    ):
                        break  # every admitted request is aboard already
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    try:
                        extra = await asyncio.wait_for(
                            self._queue.get(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
                    if extra is None:
                        await self._execute(batch)
                        return
                    batch.append(extra)
                    if self._collect(batch):
                        break
            await self._execute(batch)

    def _collect(self, batch: list[SearchItem]) -> bool:
        """Drain immediately-available items; True when the batch is full."""
        while len(batch) < self.max_batch_size:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return len(batch) >= self.max_batch_size
            if item is None:
                # Push the sentinel back so _run sees it after this batch.
                self._queue.put_nowait(None)
                return True
            batch.append(item)
        return True

    async def _execute(self, batch: list[SearchItem]) -> None:
        live = [item for item in batch if not self._drop_if_expired(item)]
        if not live:
            return
        explained = [item for item in live if item.explain]
        live = [item for item in live if not item.explain]
        if explained:
            # EXPLAIN ANALYZE must attribute per-operator counts to exactly
            # one query, so these never share a search_many call.
            await self._execute_individually(explained, retries=False)
        if not live:
            return
        self._batches += 1
        self._batched_requests += len(live)
        self._max_batch = max(self._max_batch, len(live))
        batch_k = self._widest_k(live)
        engine_choice = live[0].engine_choice
        if any(item.engine_choice != engine_choice for item in live):
            # Mixed forced engines cannot share one search_many call.
            await self._execute_individually(live)
            return
        loop = asyncio.get_running_loop()
        spans = [
            item.trace.span("dispatch.batch", batch_size=len(live))
            for item in live
            if item.trace is not None
        ]
        try:
            answers = await loop.run_in_executor(
                self._engine_pool,
                lambda: self.engine.search_many(
                    [item.query for item in live],
                    engine=engine_choice,
                    top_k=batch_k,
                ),
            )
        except ReproError:
            for span in spans:
                span.end()
            # One bad query must not fail its neighbours: fall back to
            # per-item evaluation so each request gets its own answer/error.
            await self._execute_individually(live)
            return
        except Exception as exc:  # engine bug: fail the batch loudly
            for span in spans:
                span.end()
            for item in live:
                self._reject(item, exc)
            return
        for span in spans:
            span.end()
        for item, answer in zip(live, answers):
            self._resolve(item, self._narrow(answer, item.top_k, batch_k))

    async def _execute_individually(
        self, items: list[SearchItem], retries: bool = True
    ) -> None:
        loop = asyncio.get_running_loop()
        for item in items:
            if self._drop_if_expired(item):
                continue
            if retries:
                self._individual_retries += 1
            try:
                answer = await loop.run_in_executor(
                    self._engine_pool,
                    lambda item=item: self.engine.search(
                        item.query,
                        engine=item.engine_choice,
                        top_k=item.top_k,
                        explain=item.explain,
                        trace=item.trace,
                    ),
                )
            except Exception as exc:
                self._reject(item, exc)
            else:
                self._resolve(item, answer)

    @staticmethod
    def _widest_k(items: list[SearchItem]) -> int | None:
        """The batch-wide cut: unbounded if any caller wants the full ranking."""
        widest: int | None = 0
        for item in items:
            if item.top_k is None:
                return None
            widest = max(widest, item.top_k)
        return widest

    @staticmethod
    def _narrow(
        answer: SearchResults, top_k: int | None, batch_k: int | None
    ) -> SearchResults:
        if top_k is None or top_k == batch_k:
            return answer
        return answer.top(top_k)

    def _drop_if_expired(self, item: SearchItem) -> bool:
        if not item.expired():
            return False
        self._expired_in_queue += 1
        self._reject(
            item,
            DeadlineExceeded(
                f"deadline exceeded while queued: {item.query.text!r}"
            ),
        )
        return True

    @staticmethod
    def _resolve(item: SearchItem, answer: SearchResults) -> None:
        if not item.future.done():
            item.future.set_result(answer)

    @staticmethod
    def _reject(item: SearchItem, exc: Exception) -> None:
        if not item.future.done():
            item.future.set_exception(exc)
