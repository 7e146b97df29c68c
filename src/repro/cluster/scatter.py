"""Scatter-gather query execution: the one dispatch path of every engine.

:class:`ScatterGatherExecutor` is the coordinator every
:class:`~repro.core.engine.FullTextEngine` runs its queries through.  It
owns one shard-local :class:`~repro.engine.executor.Executor` per shard --
the shards of a :class:`~repro.cluster.sharded_index.ShardedIndex`, or any
single index (``InvertedIndex``, ``PackedInvertedIndex``, ``LiveIndex``) as
its one shard -- all scoring with one model bound to the index's global
statistics, so per-shard scores *are* global scores.  It decides the facts
of the *query* -- language class, engine, physical plan -- once, evaluates
it on every shard in shard order -- which keeps the merge deterministic --
and combines the per-shard results with :mod:`repro.cluster.merge`.  Shards
are evaluated one after another in the calling thread, because per-shard
evaluation is pure Python and threads would only take turns on the GIL.

One staleness rule covers every index: ``index.generation`` moves exactly
when results may change (appends, live updates and deletes -- never
flushes or compactions).  The coordinator reads it once per query; when it
moved, the scoring model is re-bound to the fresh statistics and the
planner memo is dropped.  The generation is part of every cache key, so
entries cached before a write become unreachable and age out of the LRU.

With ``cache_size`` set, merged results are memoised in a
:class:`~repro.cluster.cache.QueryCache` keyed on the normalized plan,
engine choice, access mode, scoring backend, NPRED order strategy and
generation -- but *not* the top-k cut: exact top-k rankings are prefixes of
each other, so a warm ``k=10`` entry serves a ``k=5`` request (a genuine
hit) and only a wider request recomputes and overwrites the entry.  Without
a cache no key is computed at all.

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
from repro.cluster.sharded_index import Shard, ShardedIndex
from repro.engine.executor import AUTO, EvaluationResult, Executor, resolve_engine
from repro.engine.topk import check_top_k
from repro.exceptions import ScoringError
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
    """Evaluate queries on every shard of an index; merge and cache the results.

    ``index`` is a :class:`ShardedIndex` (its shards) or any single index
    (one shard).  ``cache_size`` of ``None`` or 0 runs uncached.
    ``max_workers`` is accepted and ignored: shards always run in the
    calling thread, and existing callers still pass it.
    """

    def __init__(
        self,
        index,
        registry: PredicateRegistry | None = None,
        scoring: "str | ScoringModel | None" = None,
        npred_orders: str = "minimal",
        access_mode: str = PAPER_MODE,
        max_workers: int | None = None,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.index = index
        self.shards: list[Shard] = (
            index.shards if isinstance(index, ShardedIndex) else [Shard(0, index)]
        )
        self.registry = registry or default_registry()
        self.npred_orders = npred_orders
        self.access_mode = check_access_mode(access_mode)
        self._scoring_spec = scoring
        self.scoring_name = self._resolve_scoring_name(scoring)
        # Planning is a *coordinator* concern: one planner over the global
        # statistics plans each query once, and the physical plan ships to
        # every shard -- so all shards make identical choices, and
        # shard-local executors never plan on their own.  Its memo is
        # dropped whenever the generation this coordinator last saw moves.
        self.optimizer = check_optimizer_mode(optimizer)
        self._generation = index.generation
        self.planner = QueryPlanner(
            self._planner_df, version=lambda: self._generation
        )
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
            for shard in self.shards
        ]
        self.cache = QueryCache(cache_size) if cache_size else None

    # ------------------------------------------------------------------ API
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def scoring(self) -> ScoringModel | None:
        """The scoring model every shard shares (bound to global statistics)."""
        return self._shard_executors[0].scoring

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard size figures, one dict per shard in shard order."""
        return [shard.describe() for shard in self.shards]

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
        generation = self._sync()
        key = None
        if self.cache is not None and not explain:
            key = self._cache_key(query, engine, generation)
            cached = self._cache_get(key, top_k)
            if cached is not None:
                return cached
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
        if key is None:
            return merged
        self.cache.put(key, merged)
        return self._detached(merged, from_cache=False)

    def _sync(self) -> int:
        """Read ``index.generation`` once for this query; catch up if it moved.

        A moved generation means the statistics changed: every shard gets a
        model bound to the fresh ones, and the planner's ``version`` (this
        coordinator's last-seen generation) drops its memo on the next plan.
        """
        generation = self.index.generation
        if generation != self._generation:
            self._generation = generation
            model = self._make_model()
            for executor in self._shard_executors:
                executor.scoring = model
        return generation

    def _plan_for(
        self, query: ast.QueryNode, engine: str
    ) -> PhysicalPlan | None:
        """Classify, pick the engine and plan once; the plan ships to every shard.

        The planner costs over the index's *global* statistics, so the
        choices reflect global document frequencies -- and because every
        shard executes the same artifact, choices cannot diverge between
        shards (the sharded/unsharded bit-identity invariant stays cheap).
        The plan carries the query's class and the validated engine, so a
        misused forced engine raises here and no shard walks the AST again;
        COMP has no plan, so each shard resolves it again.
        """
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

    def _planner_df(self, token: "str | None") -> int:
        """Document frequency for the planner, by the rule of ``Executor._df``.

        Scored, it reads the statistics the shared model is bound to (the
        global ones); unscored, it sums the shards' posting lists, so an
        unscored live index never freezes statistics just to plan.
        """
        if self.scoring is not None:
            return self._shard_executors[0]._df(token)
        return sum(executor._df(token) for executor in self._shard_executors)

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
        factory are amortised across the batch.

        When the cache is enabled, duplicated queries inside one batch are
        also evaluated only once (they would hit the cache on a second call
        anyway); with caching disabled every query is evaluated, matching
        ``Executor.execute_many`` semantics exactly.
        """
        check_top_k(top_k)
        generation = self._sync()
        if self.cache is None:
            return self._evaluate_batch(queries, engine, top_k)
        keys = [self._cache_key(query, engine, generation) for query in queries]
        answers: dict[int, MergedEvaluationResult] = {}
        pending: list[int] = []
        scheduled: dict[tuple, int] = {}
        for position, key in enumerate(keys):
            if key in scheduled:
                # A duplicate of a query scheduled in this batch: served from
                # the cache after execution (and counted as a hit there).
                continue
            cached = self._cache_get(key, top_k)
            if cached is not None:
                answers[position] = cached
            else:
                scheduled[key] = position
                pending.append(position)
        evaluated = self._evaluate_batch(
            [queries[position] for position in pending], engine, top_k
        )
        for position, merged in zip(pending, evaluated):
            self.cache.put(keys[position], merged)
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

    def _evaluate_batch(
        self,
        batch: Sequence[ast.QueryNode],
        engine: str,
        top_k: int | None,
    ) -> list[MergedEvaluationResult]:
        """Plan every query once, run the batch on each shard, merge per query."""
        if not batch:
            return []
        plans = [self._plan_for(query, engine) for query in batch]
        per_shard_batches = self._scatter(
            lambda executor: executor.execute_many(
                batch, engine=engine, top_k=top_k, plans=plans
            )
        )
        merged = []
        for per_shard in zip(*per_shard_batches):
            # The shards ran back to back, so one query took the sum.
            elapsed = sum(result.elapsed_seconds for result in per_shard)
            merged.append(merge_shard_results(list(per_shard), elapsed, top_k))
        return merged

    def cache_stats(self) -> dict[str, float]:
        """Hit/miss statistics of the result cache (zeros when disabled)."""
        if self.cache is None:
            return QueryCache.empty_stats()
        return self.cache.stats()

    def close(self) -> None:
        """Withdraw the cache from the shared gauges (idempotent)."""
        if self.cache is not None:
            self.cache.unregister()

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

        It is bound to the index's *global* statistics, so every shard
        scores with the global df / N / norms; shards are evaluated one at a
        time, each calling ``prepare()`` first, so one instance serves them
        all.  A model instance already bound to those statistics is used as
        given; any other is re-bound.
        """
        spec = self._scoring_spec
        if spec is None:
            return None
        statistics = self.index.statistics
        if isinstance(spec, str):
            return get_model(spec, statistics)
        if isinstance(spec, ScoringModel):
            if spec.statistics is statistics:
                return spec
            # Re-binding requires the standard ScoringModel constructor
            # signature; a customised instance cannot be cloned faithfully,
            # so fail loud rather than drop its configuration silently.
            try:
                return type(spec)(statistics)
            except TypeError as exc:
                raise ScoringError(
                    f"cannot re-bind scoring model {type(spec).__name__}: its "
                    f"constructor does not accept (statistics); register it "
                    f"with repro.scoring.base.register_model and pass the "
                    f"name instead"
                ) from exc
        raise ScoringError(
            "scoring must be None, a model name, or a ScoringModel instance"
        )

    def _resolve_scoring_name(self, spec: "str | ScoringModel | None") -> str:
        if spec is None:
            return "none"
        if isinstance(spec, str):
            return spec.lower()
        return getattr(spec, "name", type(spec).__name__)

    def _cache_key(self, query: ast.QueryNode, engine: str, generation: int) -> tuple:
        # Keyed on the *canonical* plan IR text, not the surface text:
        # ``b AND a`` and ``a AND b`` are the same plan and share one cache
        # entry (AND/OR evaluation and scoring are order-independent).
        return make_cache_key(
            canonical_key(query),
            engine,
            self.access_mode,
            self.scoring_name,
            self.npred_orders,
            generation,
        )

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
        hit = self.cache.get(key, accept=lambda entry: self._covers(entry, top_k))
        if hit is None:
            return None
        return self._detached(hit, from_cache=True, top_k=top_k)

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
