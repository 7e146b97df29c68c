"""Scatter-gather query execution over a sharded index.

:class:`ScatterGatherExecutor` is the cluster-side counterpart of
:class:`~repro.engine.executor.Executor`: it owns one shard-local executor
per shard (all scoring with one model bound to the globally-aggregated
statistics, so per-shard scores *are* global scores), decides the facts of
the *query* -- language class, engine, physical plan -- once, evaluates it
on every shard in shard order -- which keeps the merge deterministic -- and
combines the per-shard results with :mod:`repro.cluster.merge`.

One code path serves 1 and N shards: they are evaluated one after another
in the calling thread, because per-shard evaluation is pure Python and
threads would only take turns on the GIL.

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

import time
from typing import Sequence

from repro.cluster.cache import DEFAULT_CACHE_SIZE, QueryCache, make_cache_key
from repro.cluster.merge import MergedEvaluationResult, merge_shard_results
from repro.cluster.sharded_index import ShardedIndex
from repro.engine.executor import AUTO, EvaluationResult, Executor, resolve_engine
from repro.engine.topk import check_top_k
from repro.index.cursor import PAPER_MODE, check_access_mode
from repro.languages import ast
from repro.languages.classify import classify_query
from repro.model.predicates import PredicateRegistry, default_registry
from repro.planner import DEFAULT_OPTIMIZER, OPTIMIZER_OFF, check_optimizer_mode
from repro.planner.ir import canonical_key
from repro.planner.optimizer import QueryPlanner
from repro.planner.physical import PhysicalPlan
from repro.scoring.base import ScoringModel, get_model
from repro.telemetry import instruments


class ScatterGatherExecutor:
    """Evaluate queries on every index shard; merge and cache the results.

    ``max_workers`` is accepted and ignored: shards always run in the
    calling thread, and existing callers still pass it.
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
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.sharded_index = sharded_index
        self.registry = registry or default_registry()
        self.npred_orders = npred_orders
        self.access_mode = check_access_mode(access_mode)
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
        per_shard = self._scatter(
            lambda executor: executor.execute(
                query, engine=engine, top_k=top_k, explain=explain, plan=plan,
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
        path.

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
            per_shard_batches = self._scatter(
                lambda executor: executor.execute_many(
                    batch, engine=engine, top_k=top_k, plans=batch_plans
                )
            )
            for offset, position in enumerate(pending):
                per_shard = [shard_batch[offset] for shard_batch in per_shard_batches]
                # The shards ran back to back, so one query took the sum.
                elapsed = sum(result.elapsed_seconds for result in per_shard)
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

    def close(self) -> None:
        """Deregister the invalidation listeners (idempotent).

        Deregistering matters when one long-lived :class:`ShardedIndex` is
        served by successive executors: a closed executor must not keep
        receiving (and being kept alive by) invalidation notifications.
        """
        if self.cache is not None:
            self.cache.unregister()
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
            instruments.SCATTER_TASKS_TOTAL.inc(len(executors))
        if trace is None:
            return [task(executor) for executor in executors]
        results = []
        for shard_id, executor in enumerate(executors):
            with trace.span("scatter.shard", shard=shard_id):
                results.append(task(executor))
        return results

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
