"""Scatter-gather query execution over a sharded index.

:class:`ScatterGatherExecutor` is the cluster-side counterpart of
:class:`~repro.engine.executor.Executor`: it owns one shard-local executor
per shard (all scoring with one model bound to the globally-aggregated
statistics, so per-shard scores *are* global scores), decides the facts of
the *query* -- language class, engine, physical plan -- once, evaluates it
on every shard in shard order -- which keeps the merge deterministic -- and
combines the per-shard results with :mod:`repro.cluster.merge`.

With ``workers="thread"`` (the default) one code path serves 1 and N shards:
they are evaluated one after another in the calling thread, because
per-shard evaluation is pure Python and threads would only take turns on
the GIL.

With ``workers="process"`` the fan-out escapes the GIL: each shard is
spilled once to a packed v4 segment file (:mod:`repro.index.packed`), and a
persistent :class:`~concurrent.futures.ProcessPoolExecutor` of
``max_workers`` workers (default: one per shard) serves queries
against mmap'd, zero-copy views of those files -- the spill pages are
shared read-only across all workers through the OS page cache, and each
worker ships back only its exact best-k prefix.  Scores stay bit-identical
to the in-process path because the aggregated statistics (including every
TF-IDF norm) are computed once in the parent and shipped to the workers
(:mod:`repro.cluster.process_scatter`).  Process mode requires a *static*
sharded index (no live generation) and a registered scoring name;
incremental appends are supported -- the next query respills and restarts
the pool.

Merged results are memoised in a :class:`~repro.cluster.cache.QueryCache`
keyed on the normalized plan, engine choice, access mode, scoring backend
and NPRED order strategy -- but *not* the top-k cut: exact top-k rankings
are prefixes of each other, so a warm ``k=10`` entry serves a ``k=5``
request (a genuine hit) and only a wider request recomputes and overwrites
the entry.  The cache registers itself for invalidation on incremental
updates of the sharded index.

``top_k`` is forwarded to every shard executor, so each shard runs the
score-bounded pushdown of :mod:`repro.engine.topk` and ships back only its
own exact top-``k`` prefix, so the merge sorts at most ``k * s`` pairs.

One executor serves one caller at a time (the shard executors and their
scoring model carry per-query state); wrap it in its own lock if several
threads must share it.
"""

from __future__ import annotations

import atexit
import multiprocessing
import shutil
import signal
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.cluster.cache import DEFAULT_CACHE_SIZE, QueryCache, make_cache_key
from repro.cluster.merge import MergedEvaluationResult, merge_shard_results
from repro.cluster.process_scatter import (
    WorkerConfig,
    _init_worker,
    freeze_statistics,
    run_shard_batch,
)
from repro.cluster.sharded_index import ShardedIndex
from repro.engine.executor import AUTO, EvaluationResult, Executor, resolve_engine
from repro.engine.topk import check_top_k
from repro.exceptions import ClusterError
from repro.index.cursor import PAPER_MODE, check_access_mode
from repro.index.packed_index import save_packed_index
from repro.languages import ast
from repro.languages.classify import classify_query
from repro.model.predicates import PredicateRegistry, default_registry
from repro.planner import DEFAULT_OPTIMIZER, OPTIMIZER_OFF, check_optimizer_mode
from repro.planner.ir import canonical_key
from repro.planner.optimizer import QueryPlanner
from repro.planner.physical import PhysicalPlan
from repro.scoring.base import ScoringModel, available_models, get_model
from repro.telemetry import instruments

#: Where shards are evaluated: in the calling thread, or in worker processes.
WORKER_MODES = ("thread", "process")


# ---------------------------------------------------------------------------
# Spool-directory and worker lifetime.  Explicit ``close()`` removes an
# executor's spool and stops its pool directly, but a long-running server
# that dies to SIGTERM -- or any process that simply exits without closing
# its engine -- must not leak epoch'd spool directories under the system
# temp dir, nor orphan its worker processes.  Every owned spool is tracked
# in a module-level registry swept by an ``atexit`` hook, and every live
# pool beside it; (when no one else claimed SIGTERM and we are on the main
# thread) a chained SIGTERM handler sweeps the spools, terminates the pools'
# workers and then re-raises the default termination.  A plain exit needs
# no pool sweep: ``concurrent.futures`` joins idle workers at exit itself.
# ---------------------------------------------------------------------------
_SPOOL_REGISTRY: "set[str]" = set()
_LIVE_POOLS: "set[ProcessPoolExecutor]" = set()
_REGISTRY_LOCK = threading.Lock()  # guards both registries
_EXIT_CLEANUP_INSTALLED = False


def cleanup_registered_spools() -> None:
    """Remove every registered spool directory (idempotent, never raises)."""
    with _REGISTRY_LOCK:
        paths = list(_SPOOL_REGISTRY)
        _SPOOL_REGISTRY.clear()
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


def terminate_registered_pools() -> None:
    """Terminate and reap the workers of every live process pool.

    Idle spawn workers block on a queue whose write end they hold
    themselves, so they never notice their parent dying; without this they
    (and the ``multiprocessing`` resource tracker) outlive a SIGTERM'd
    parent.  (``ProcessPoolExecutor`` only exposes its workers through the
    private ``_processes`` map before Python 3.14.)
    """
    with _REGISTRY_LOCK:
        pools = list(_LIVE_POOLS)
        _LIVE_POOLS.clear()
    workers = [
        process
        for pool in pools
        for process in list((getattr(pool, "_processes", None) or {}).values())
    ]
    for process in workers:
        process.terminate()
    for process in workers:
        process.join(timeout=5)


def _sweep_and_reraise_sigterm(signum, frame) -> None:  # pragma: no cover
    cleanup_registered_spools()
    terminate_registered_pools()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.raise_signal(signal.SIGTERM)  # exit with the conventional 143


def _install_exit_cleanup() -> None:
    """Install the atexit sweep (once) and, where safe, the SIGTERM chain.

    The SIGTERM handler is only installed from the main thread and only when
    the signal is still at its default disposition: a host application (for
    example ``repro serve-http``'s drain handler) that manages SIGTERM
    itself is expected to close its engines, which removes the spools and
    stops the pools explicitly.
    """
    global _EXIT_CLEANUP_INSTALLED
    if _EXIT_CLEANUP_INSTALLED:
        return
    _EXIT_CLEANUP_INSTALLED = True
    atexit.register(cleanup_registered_spools)
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _sweep_and_reraise_sigterm)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _register_spool(path: Path) -> None:
    with _REGISTRY_LOCK:
        _SPOOL_REGISTRY.add(str(path))
    _install_exit_cleanup()


def _unregister_spool(path: Path) -> None:
    with _REGISTRY_LOCK:
        _SPOOL_REGISTRY.discard(str(path))


class ScatterGatherExecutor:
    """Evaluate queries on every index shard; merge and cache the results.

    ``workers="thread"`` runs the shards in the calling thread;
    ``max_workers`` sizes the ``workers="process"`` pool only.
    """

    def __init__(
        self,
        sharded_index: ShardedIndex,
        registry: PredicateRegistry | None = None,
        scoring: "str | ScoringModel | None" = None,
        npred_orders: str = "minimal",
        access_mode: str = PAPER_MODE,
        max_workers: int | None = None,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
        workers: str = "thread",
        spool_dir: "Path | str | None" = None,
        mp_context: str | None = None,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        if workers not in WORKER_MODES:
            raise ClusterError(
                f"unknown workers mode {workers!r} (choose from {WORKER_MODES})"
            )
        self.workers = workers
        self.sharded_index = sharded_index
        self.registry = registry or default_registry()
        self.npred_orders = npred_orders
        self.access_mode = check_access_mode(access_mode)
        self.max_workers = max_workers
        self._scoring_spec = scoring
        self.scoring_name = self._resolve_scoring_name(scoring)
        # Planning is a *coordinator* concern: one planner over the global
        # aggregated statistics plans each query once, and the physical plan
        # ships to every shard -- so all shards make identical choices, and
        # shard-local executors never plan on their own.
        self.optimizer = check_optimizer_mode(optimizer)
        self.planner = QueryPlanner(self._planner_df)
        model = self._make_model()
        self._shard_executors = [
            Executor(
                shard.index,
                self.registry,
                model,
                npred_orders=npred_orders,
                access_mode=self.access_mode,
                optimizer=OPTIMIZER_OFF,
            )
            for shard in sharded_index.shards
        ]
        self.cache = QueryCache(cache_size) if cache_size else None
        # Two invalidation regimes: a static sharded index has no data
        # version, so the cache is flushed wholesale on every mutation; a
        # live index exposes a mutation generation that every cache key
        # embeds, so stale entries just age out of the LRU and flushes /
        # compactions (which cannot change results) leave the cache warm.
        self._generation_keyed = sharded_index.cache_generation() is not None
        self._cache_listener_registered = False
        if self.cache is not None and not self._generation_keyed:
            sharded_index.add_invalidation_listener(self.cache.invalidate)
            self._cache_listener_registered = True
        # An incremental append changes the global df/N, so the scoring model
        # must re-bind to the recomputed statistics before the next query.
        self._scoring_stale = False
        if self._scoring_spec is not None:
            sharded_index.add_invalidation_listener(self._mark_scoring_stale)
        # A mutation changes the global dfs the cost model planned with, so
        # the planner's memoised plans are dropped.
        self._planner_stale = False
        sharded_index.add_invalidation_listener(self._mark_planner_stale)
        # Process-mode state: the spill files, the worker pool, and a dirty
        # flag that forces a respill + pool restart after any mutation.
        self._process_pool: ProcessPoolExecutor | None = None
        self._spool_root = Path(spool_dir) if spool_dir is not None else None
        self._spool_owned = False
        self._spool_epoch = 0
        self._shard_paths: tuple[str, ...] = ()
        # Bytes this executor last reported into repro_spool_bytes.
        self._spool_bytes_reported = 0
        self._process_stale = True
        self._process_listener_registered = False
        self.mp_context = mp_context
        if workers == "process":
            if sharded_index.cache_generation() is not None:
                raise ClusterError(
                    "workers='process' requires a static sharded index: live "
                    "(mutable) shards change under the spilled segment files; "
                    "use workers='thread' (shards evaluated in the calling "
                    "thread) for live indexes"
                )
            if (
                self._scoring_spec is not None
                and self.scoring_name not in available_models()
            ):
                from repro.exceptions import ScoringError

                raise ScoringError(
                    f"workers='process' needs a registered scoring model name "
                    f"to rebuild scoring in the workers; {self.scoring_name!r} "
                    f"is not registered (see repro.scoring.base.register_model)"
                )
            sharded_index.add_invalidation_listener(self._mark_process_stale)
            self._process_listener_registered = True

    # ------------------------------------------------------------------ API
    @property
    def num_shards(self) -> int:
        return self.sharded_index.num_shards

    @property
    def scoring(self) -> ScoringModel | None:
        """The scoring model every shard shares (bound to global statistics)."""
        return self._shard_executors[0].scoring if self._shard_executors else None

    def execute(
        self,
        query: ast.QueryNode,
        engine: str = AUTO,
        top_k: int | None = None,
        explain: bool = False,
        trace=None,
    ) -> MergedEvaluationResult:
        """Evaluate ``query`` on every shard and merge the answers.

        The merged result's ``elapsed_seconds`` is the scatter-gather wall
        clock; ``top_k`` is pushed down to every shard executor (each ships
        back only its exact best-``k`` prefix) and bounds the k-way merge
        (``node_ids`` and the match count stay complete).

        ``explain=True`` bypasses the result cache entirely -- a cache hit
        carries no fresh per-cursor counts -- and returns a merged result
        whose ``explain`` payload wraps one subtree per shard.  ``trace``
        receives one span per shard evaluation.  Results stay bit-identical.
        """
        check_top_k(top_k)
        if not explain:
            key = self._cache_key(query, engine)
            cached = self._cache_get(key, top_k)
            if cached is not None:
                return cached
        self._refresh_scoring_if_stale()
        plan = self._plan_for(query, engine)
        started = time.perf_counter()
        if self.workers == "process":
            per_shard = [
                shard_batch[0]
                for shard_batch in self._process_scatter(
                    [query], engine, top_k, explain=explain, trace=trace,
                    plans=[plan],
                )
            ]
        else:
            per_shard = self._scatter(
                lambda executor: executor.execute(
                    query, engine=engine, top_k=top_k, explain=explain,
                    plan=plan,
                ),
                trace=trace,
            )
        merged = merge_shard_results(
            per_shard, time.perf_counter() - started, top_k
        )
        if explain:
            merged.explain = self._merged_explain(
                query, merged, per_shard, plan=plan
            )
            return merged  # never cached: hand the fresh object out directly
        if self.cache is None:
            return merged
        self._cache_put(key, merged)
        return self._detached(merged, from_cache=False)

    def _plan_for(
        self, query: ast.QueryNode, engine: str
    ) -> PhysicalPlan | None:
        """Classify, pick the engine and plan once; the plan ships to every shard.

        The planner costs over the cluster's *aggregated* statistics, so the
        choices reflect global document frequencies -- and because every
        shard executes the same artifact, choices cannot diverge between
        shards (the sharded/unsharded bit-identity invariant stays cheap).
        The plan carries the query's class and the validated engine, so a
        misused forced engine raises here and no shard walks the AST again;
        COMP has no plan, so each shard resolves it again.
        """
        if self._planner_stale:
            self._planner_stale = False
            self.planner = QueryPlanner(self._planner_df)
        language_class = classify_query(query, self.registry)
        engine_name = resolve_engine(language_class, engine)
        if engine_name == "comp":
            return None
        plan = self.planner.plan(
            query,
            engine=engine_name,
            language_class=language_class.value,
            optimizer=self.optimizer,
            access_mode=self.access_mode,
        )
        if instruments.REGISTRY.enabled:
            instruments.PLANS_TOTAL.labels(plan.provenance).inc()
        return plan

    def _mark_planner_stale(self) -> None:
        self._planner_stale = True

    def _planner_df(self, token: "str | None") -> int:
        statistics = self.sharded_index.statistics
        if token is None:
            return statistics.node_count
        return statistics.document_frequency(token)

    def optimizer_stats(self) -> dict[str, object]:
        """Optimizer mode + planner counters for ``/stats``."""
        return {"mode": self.optimizer, **self.planner.summary()}

    def _merged_explain(
        self,
        query: ast.QueryNode,
        merged: MergedEvaluationResult,
        per_shard: "list[EvaluationResult]",
        plan: PhysicalPlan | None = None,
    ) -> dict:
        """The cluster-level EXPLAIN ANALYZE payload wrapping shard subtrees."""
        from repro.telemetry.explain import build_scatter_explain

        shard_payloads = [result.explain or {} for result in per_shard]
        top_k_info = None
        infos = [
            payload.get("top_k")
            for payload in shard_payloads
            if payload.get("top_k") is not None
        ]
        if infos:
            top_k_info = {
                "k": infos[0].get("k"),
                "scored": sum(info.get("scored", 0) for info in infos),
                "pruned": sum(info.get("pruned", 0) for info in infos),
                "gave_up": any(info.get("gave_up") for info in infos),
            }
        return build_scatter_explain(
            query_text=query.to_text(),
            language_class=merged.language_class.value,
            engine=merged.engine,
            access_mode=self.access_mode,
            elapsed_seconds=merged.elapsed_seconds,
            rows_produced=len(merged.node_ids),
            shard_payloads=shard_payloads,
            workers=self.workers,
            cache="bypass" if self.cache is not None else "off",
            top_k=top_k_info,
            plan=plan.describe() if plan is not None else None,
        )

    def execute_many(
        self,
        queries: Sequence[ast.QueryNode],
        engine: str = AUTO,
        top_k: int | None = None,
    ) -> list[MergedEvaluationResult]:
        """Evaluate a batch, handing the *whole batch* to each shard in turn.

        Each shard runs :meth:`Executor.execute_many` over every
        not-yet-cached query, so the shard-local plan cache and cursor
        factory are amortised across the batch exactly as in the single-index
        path (and, with ``workers="process"``, the shards overlap for the full
        batch duration instead of meeting at a barrier after every query).

        When the cache is enabled, duplicated queries inside one batch are
        also evaluated only once (they would hit the cache on a second call
        anyway); with caching disabled every query is evaluated, matching
        the single-index ``execute_many`` semantics exactly.
        """
        check_top_k(top_k)
        keys = [self._cache_key(query, engine) for query in queries]
        answers: dict[int, MergedEvaluationResult] = {}
        pending: list[int] = []
        scheduled: dict[tuple, int] = {}
        for position, key in enumerate(keys):
            if self.cache is not None and key in scheduled:
                # A duplicate of a query scheduled in this batch: served from
                # the cache after execution (and counted as a hit there).
                continue
            cached = self._cache_get(key, top_k)
            if cached is not None:
                answers[position] = cached
            else:
                scheduled.setdefault(key, position)
                pending.append(position)
        if pending:
            self._refresh_scoring_if_stale()
            batch = [queries[position] for position in pending]
            batch_plans = [
                self._plan_for(query, engine) for query in batch
            ]
            if self.workers == "process":
                per_shard_batches = self._process_scatter(
                    batch, engine, top_k, plans=batch_plans
                )
            else:
                per_shard_batches = self._scatter(
                    lambda executor: executor.execute_many(
                        batch, engine=engine, top_k=top_k, plans=batch_plans
                    )
                )
            for offset, position in enumerate(pending):
                per_shard = [shard_batch[offset] for shard_batch in per_shard_batches]
                # Worker processes overlap, so one query took as long as its
                # slowest shard; in-process shards run back to back.
                combine = max if self.workers == "process" else sum
                elapsed = combine(result.elapsed_seconds for result in per_shard)
                merged = merge_shard_results(per_shard, elapsed, top_k)
                if self.cache is None:
                    answers[position] = merged
                else:
                    self._cache_put(keys[position], merged)
                    answers[position] = self._detached(merged, from_cache=False)
        # Duplicates of a scheduled query: now cache-resident, a real hit.
        # (Unless the entry was already evicted by later puts of this very
        # batch -- then hand out a detached copy of the first occurrence's
        # result so no two positions alias one mutable object.)
        for position, key in enumerate(keys):
            if position not in answers:
                hit = self._cache_get(key, top_k)
                answers[position] = (
                    hit
                    if hit is not None
                    else self._detached(answers[scheduled[key]], from_cache=False)
                )
        return [answers[position] for position in range(len(queries))]

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss statistics of the result cache (zeros when disabled)."""
        if self.cache is None:
            return QueryCache.empty_stats()
        return self.cache.stats()

    def spool_stats(self) -> dict | None:
        """Size and location of the process-mode spill files (else ``None``)."""
        if self.workers != "process" or not self._shard_paths:
            return None
        total = 0
        present = 0
        for path in self._shard_paths:
            try:
                total += Path(path).stat().st_size
                present += 1
            except OSError:  # a respill epoch just replaced this file
                pass
        return {
            "directory": str(self._spool_root),
            "epoch": self._spool_epoch,
            "files": present,
            "bytes": total,
        }

    def _report_spool_bytes(self, current: int) -> None:
        """Move this executor's repro_spool_bytes contribution to ``current``."""
        delta = current - self._spool_bytes_reported
        if delta and instruments.REGISTRY.enabled:
            instruments.SPOOL_BYTES.inc(delta)
        self._spool_bytes_reported = current

    def close(self) -> None:
        """Shut the process pool down and deregister listeners (idempotent).

        Deregistering matters when one long-lived :class:`ShardedIndex` is
        served by successive executors: a closed executor must not keep
        receiving (and being kept alive by) invalidation notifications.
        """
        self._teardown_process_pool()
        if self._spool_owned and self._spool_root is not None:
            _unregister_spool(self._spool_root)
            shutil.rmtree(self._spool_root, ignore_errors=True)
            self._spool_root = None
            self._spool_owned = False
        self._report_spool_bytes(0)
        if self.cache is not None:
            self.cache.unregister()
        if self._process_listener_registered:
            self.sharded_index.remove_invalidation_listener(
                self._mark_process_stale
            )
            self._process_listener_registered = False
        if self._cache_listener_registered:
            self.sharded_index.remove_invalidation_listener(self.cache.invalidate)
            self._cache_listener_registered = False
        if self._scoring_spec is not None:
            self.sharded_index.remove_invalidation_listener(self._mark_scoring_stale)
        self.sharded_index.remove_invalidation_listener(self._mark_planner_stale)

    def __enter__(self) -> "ScatterGatherExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _scatter(self, task, trace=None) -> list:
        """Run ``task(shard_executor)`` on each shard in turn, in this thread.

        Results come back in shard order; a shard that raises ends the
        scatter there, with nothing left running behind the caller.  With a
        ``trace`` each shard evaluation runs in its own ``scatter.shard`` span.
        """
        executors = self._shard_executors
        if instruments.REGISTRY.enabled:
            instruments.SCATTER_TASKS_TOTAL.labels(self.workers).inc(
                len(executors)
            )
        if trace is None:
            return [task(executor) for executor in executors]
        results = []
        for shard_id, executor in enumerate(executors):
            with trace.span("scatter.shard", shard=shard_id, workers="thread"):
                results.append(task(executor))
        return results

    # ---------------------------------------------------- process-pool path
    def _mark_process_stale(self) -> None:
        self._process_stale = True

    def _process_scatter(
        self,
        batch: Sequence[ast.QueryNode],
        engine: str,
        top_k: int | None,
        explain: bool = False,
        trace=None,
        plans: "Sequence[PhysicalPlan | None] | None" = None,
    ) -> "list[list[EvaluationResult]]":
        """Fan a batch out to the worker processes; one result list per shard.

        Queries travel as surface text plus the coordinator's pickled
        physical plans (``None`` for COMP), aligned by position -- workers
        execute the shipped plan instead of re-deriving choices per shard.
        Results come back as picklable per-shard :class:`EvaluationResult`
        lists in shard order (with ``explain`` the per-query explain
        payloads pickle back too).  With a ``trace``, per-shard spans wrap
        the submit-to-result window observed from the parent -- worker-side
        wall time plus queueing, the best a process boundary can offer.
        """
        pool = self._ensure_process_pool()
        texts = [query.to_text() for query in batch]
        if instruments.REGISTRY.enabled:
            instruments.SCATTER_TASKS_TOTAL.labels(self.workers).inc(
                self.num_shards
            )
        spans = None
        if trace is not None:
            spans = [
                trace.span("scatter.shard", shard=shard_id, workers="process")
                for shard_id in range(self.num_shards)
            ]
        futures = [
            pool.submit(
                run_shard_batch, shard_id, texts, engine, top_k, explain,
                list(plans) if plans is not None else None,
            )
            for shard_id in range(self.num_shards)
        ]
        results = []
        for shard_id, future in enumerate(futures):
            result = future.result()
            if spans is not None:
                spans[shard_id].end()
            results.append(result)
        return results

    def _ensure_process_pool(self) -> ProcessPoolExecutor:
        if self._process_stale:
            self._teardown_process_pool()
            self._spill_shards()
            self._process_stale = False
        if self._process_pool is None:
            config = WorkerConfig(
                shard_paths=self._shard_paths,
                scoring_name=self.scoring_name,
                npred_orders=self.npred_orders,
                access_mode=self.access_mode,
                statistics=(
                    freeze_statistics(
                        self.sharded_index.statistics, with_norms=True
                    )
                    if self._scoring_spec is not None
                    else None
                ),
            )
            context = multiprocessing.get_context(self.mp_context or "spawn")
            workers = self.max_workers or self.num_shards
            self._process_pool = ProcessPoolExecutor(
                max_workers=max(1, min(workers, self.num_shards)),
                mp_context=context,
                initializer=_init_worker,
                initargs=(config,),
            )
            with _REGISTRY_LOCK:
                _LIVE_POOLS.add(self._process_pool)
            _install_exit_cleanup()
        return self._process_pool

    def _spill_shards(self) -> None:
        """Write every shard index as a packed v4 file the workers can mmap.

        Each (re)spill goes to a fresh epoch subdirectory: a worker from a
        dying pool may still hold mappings of the previous files, so they
        are never overwritten in place.
        """
        if self._spool_root is None:
            self._spool_root = Path(
                tempfile.mkdtemp(prefix="repro-shard-spool-")
            )
            self._spool_owned = True
            # A SIGTERM or plain interpreter exit must not leak the spool:
            # register it for the atexit/SIGTERM sweep until close() runs.
            _register_spool(self._spool_root)
        previous = self._spool_root / f"epoch-{self._spool_epoch:04d}"
        self._spool_epoch += 1
        if self._spool_epoch > 1:
            # Epoch 1 is the initial spill; anything later is a respill
            # forced by an index mutation.
            instruments.SPOOL_RESPILLS_TOTAL.inc()
        epoch_dir = self._spool_root / f"epoch-{self._spool_epoch:04d}"
        epoch_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for shard in self.sharded_index.shards:
            path = epoch_dir / f"shard-{shard.shard_id:04d}.seg"
            save_packed_index(shard.index, path)
            paths.append(str(path))
        self._shard_paths = tuple(paths)
        if previous.exists():
            shutil.rmtree(previous, ignore_errors=True)
        self._report_spool_bytes(
            sum(Path(path).stat().st_size for path in paths)
        )

    def _teardown_process_pool(self) -> None:
        if self._process_pool is not None:
            with _REGISTRY_LOCK:
                _LIVE_POOLS.discard(self._process_pool)
            self._process_pool.shutdown(wait=True)
            self._process_pool = None

    def _make_model(self) -> ScoringModel | None:
        """The scoring model all shard executors share.

        It is bound to the *aggregated* statistics, so every shard scores
        with the global df / N / norms; shards are evaluated one at a time,
        each calling ``prepare()`` first, so one instance serves them all.
        """
        from repro.exceptions import ScoringError

        spec = self._scoring_spec
        if spec is None:
            return None
        statistics = self.sharded_index.statistics
        if isinstance(spec, str):
            return get_model(spec, statistics)
        if isinstance(spec, ScoringModel):
            # Re-bind the model class to the aggregated statistics.  This
            # requires the standard ScoringModel constructor signature; a
            # customised instance cannot be cloned faithfully, so fail loud
            # rather than drop its configuration silently.
            try:
                return type(spec)(statistics)
            except TypeError as exc:
                raise ScoringError(
                    f"cannot shard scoring model {type(spec).__name__}: its "
                    f"constructor does not accept (statistics); register it "
                    f"with repro.scoring.base.register_model and pass the "
                    f"name instead"
                ) from exc
        raise ScoringError(
            "scoring must be None, a model name, or a ScoringModel instance"
        )

    def _mark_scoring_stale(self) -> None:
        self._scoring_stale = True

    def _refresh_scoring_if_stale(self) -> None:
        """Re-bind the scoring model after an incremental index update.

        ``ShardedIndex.add_node`` drops the aggregated statistics; the next
        query must score with the recomputed global df / N, so the shard
        executors get a fresh model bound to the fresh statistics.
        """
        if not self._scoring_stale:
            return
        self._scoring_stale = False
        model = self._make_model()
        for executor in self._shard_executors:
            executor.scoring = model

    def _resolve_scoring_name(self, spec: "str | ScoringModel | None") -> str:
        if spec is None:
            return "none"
        if isinstance(spec, str):
            return spec.lower()
        return getattr(spec, "name", type(spec).__name__)

    def _cache_key(self, query: ast.QueryNode, engine: str) -> tuple:
        # Keyed on the *canonical* plan IR text, not the surface text:
        # ``b AND a`` and ``a AND b`` are the same plan and share one cache
        # entry (AND/OR evaluation and scoring are order-independent).
        key = make_cache_key(
            canonical_key(query),
            engine,
            self.access_mode,
            self.scoring_name,
            self.npred_orders,
        )
        if self._generation_keyed:
            # Segment-aware invalidation: the data generation is part of the
            # key, so a mutation makes old entries unreachable rather than
            # flushing the cache.
            key = key + (self.sharded_index.cache_generation(),)
        return key

    @staticmethod
    def _covers(entry: MergedEvaluationResult, top_k: int | None) -> bool:
        """Whether a cached entry's ranking can serve a ``top_k`` request.

        A full ranking (``ranked_limit is None``) serves everything; a
        pruned one serves any request that is at most as wide.  Exact top-k
        rankings are prefixes of each other (the merge contract), so serving
        a smaller ``k`` from a wider entry is just a truncation.
        """
        if entry.ranked_limit is None:
            return True
        return top_k is not None and top_k <= entry.ranked_limit

    def _cache_get(
        self, key: tuple, top_k: int | None = None
    ) -> MergedEvaluationResult | None:
        if self.cache is None:
            return None
        hit = self.cache.get(key, accept=lambda entry: self._covers(entry, top_k))
        if hit is None:
            return None
        return self._detached(hit, from_cache=True, top_k=top_k)

    def _cache_put(self, key: tuple, merged: MergedEvaluationResult) -> None:
        if self.cache is not None:
            self.cache.put(key, merged)

    #: Sentinel for "hand the result back at its own width" (``None`` is a
    #: meaningful top_k value -- the full ranking -- so it cannot be used).
    _OWN_WIDTH = object()

    def _detached(
        self,
        result: MergedEvaluationResult,
        from_cache: bool,
        top_k=_OWN_WIDTH,
    ) -> MergedEvaluationResult:
        """A caller-owned copy of a (possibly cached) merged result.

        The object stored in the cache must never be handed out directly:
        ``node_ids`` / ``scores`` / ``_ranked`` are mutable and
        ``CursorStats.merge`` mutates in place, so a caller poking at a
        returned result would otherwise corrupt every future hit.  With
        ``top_k`` the copy's ranking is narrowed to the requested prefix
        (the cache stores one entry per query at its widest ranking).
        """
        ranked = list(result.ranked())
        limit = result.ranked_limit
        if top_k is not self._OWN_WIDTH and top_k is not None:
            ranked = ranked[:top_k]
            limit = top_k
        return MergedEvaluationResult(
            node_ids=list(result.node_ids),
            language_class=result.language_class,
            engine=result.engine,
            elapsed_seconds=result.elapsed_seconds,
            scores=dict(result.scores),
            cursor_stats=(
                result.cursor_stats.copy()
                if result.cursor_stats is not None
                else None
            ),
            ranked_limit=limit,
            plan=dict(result.plan) if result.plan is not None else None,
            shard_count=result.shard_count,
            from_cache=from_cache,
            _ranked=ranked,
        )
