"""Engine selection and query execution.

The :class:`Executor` ties the pieces together: it classifies a parsed query
into the language hierarchy (BOOL-NONEG / BOOL / PPRED / NPRED / COMP),
selects the cheapest engine able to evaluate it (or a caller-forced engine,
validated against the hierarchy), runs the evaluation, optionally ranks the
matching nodes with a scoring model, and reports timing plus inverted-list
I/O statistics.  This is the layer the benchmark harness drives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.exceptions import UnsupportedQueryError
from repro.index.cursor import PAPER_MODE, CursorFactory, CursorStats, check_access_mode
from repro.index.inverted_index import InvertedIndex
from repro.languages import ast
from repro.languages.classify import LanguageClass, can_evaluate, classify_query
from repro.model.predicates import PredicateRegistry, default_registry
from repro.scoring.base import ScoringModel
from repro.engine.bool_engine import BoolEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.engine.npred_engine import NPredEngine
from repro.engine.ppred_engine import PPredEngine
from repro.engine.topk import TopKCollector, check_top_k
from repro.planner import DEFAULT_OPTIMIZER, check_optimizer_mode
from repro.planner.ir import canonical_key
from repro.planner.optimizer import QueryPlanner
from repro.planner.physical import PhysicalPlan
from repro.telemetry import instruments

#: Engine name accepted by :meth:`Executor.execute` for automatic selection.
AUTO = "auto"

#: Map of language class -> the engine name that natively evaluates it.
NATIVE_ENGINE = {
    LanguageClass.BOOL_NONEG: "bool",
    LanguageClass.BOOL: "bool",
    LanguageClass.PPRED: "ppred",
    LanguageClass.NPRED: "npred",
    LanguageClass.COMP: "comp",
}

#: Map of engine name -> the language class it implements.
ENGINE_CLASS = {
    "bool": LanguageClass.BOOL,
    "ppred": LanguageClass.PPRED,
    "npred": LanguageClass.NPRED,
    "comp": LanguageClass.COMP,
}


def resolve_engine(language_class: LanguageClass, engine: str) -> str:
    """The class's native engine for ``"auto"``, else the validated forced one."""
    if engine == AUTO:
        return NATIVE_ENGINE[language_class]
    engine = engine.lower()
    if engine not in ENGINE_CLASS:
        raise UnsupportedQueryError(
            f"unknown engine {engine!r}; expected one of "
            f"{sorted(ENGINE_CLASS)} or 'auto'"
        )
    if not can_evaluate(language_class, ENGINE_CLASS[engine]):
        raise UnsupportedQueryError(
            f"the {engine} engine cannot evaluate {language_class.value} queries"
        )
    return engine


@dataclass
class EvaluationResult:
    """Outcome of evaluating one query.

    ``node_ids`` always covers *every* match (``total_matches`` stays exact
    even under top-k pushdown); with ``ranked_limit`` set, the ranking was
    pruned during evaluation and :meth:`ranked` returns the precomputed best
    ``ranked_limit`` pairs -- identical to sorting the full ranking and
    slicing, see :mod:`repro.engine.topk`.  ``scores`` is partial on a
    pruned result (the skipped nodes were never scored, that is the point).
    """

    node_ids: list[int]
    language_class: LanguageClass
    engine: str
    elapsed_seconds: float
    scores: dict[int, float] = field(default_factory=dict)
    cursor_stats: CursorStats | None = None
    ranked_limit: int | None = None
    #: EXPLAIN ANALYZE payload (see :mod:`repro.telemetry.explain`), only
    #: populated by instrumented executions; a plain dict so it encodes to
    #: JSON unchanged.
    explain: dict | None = None
    #: The physical plan's :meth:`~repro.planner.physical.PhysicalPlan.describe`
    #: payload (provenance, strategy choices, per-token estimates); ``None``
    #: for COMP, which runs without a plan.  Plain dict for the same reason.
    plan: dict | None = None
    _ranked: list[tuple[int, float]] | None = None

    def __len__(self) -> int:
        return len(self.node_ids)

    def ranked(self) -> list[tuple[int, float]]:
        """Node ids with scores, best first (unscored results keep id order)."""
        if self._ranked is not None:
            return self._ranked
        if not self.scores:
            return [(node_id, 0.0) for node_id in self.node_ids]
        return sorted(
            ((nid, self.scores.get(nid, 0.0)) for nid in self.node_ids),
            key=lambda pair: (-pair[1], pair[0]),
        )


class Executor:
    """Classify queries, pick an engine, evaluate, optionally score.

    Every non-COMP query runs under a :class:`PhysicalPlan`.  With
    ``optimizer="off"`` (the default) the plan defers every choice to the
    engines' builtin heuristics; with ``"on"`` it carries the cost model's
    join order, merge strategy and paper→fast upgrade, memoised per
    canonical query until the index's generation moves.  Both modes are
    pinned bit-identical in ids, scores and order.
    """

    def __init__(
        self,
        index: InvertedIndex,
        registry: PredicateRegistry | None = None,
        scoring: ScoringModel | None = None,
        npred_orders: str = "minimal",
        access_mode: str = PAPER_MODE,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.index = index
        self.registry = registry or default_registry()
        self.scoring = scoring
        self.npred_orders = npred_orders
        self.access_mode = check_access_mode(access_mode)
        self.optimizer = check_optimizer_mode(optimizer)
        self.planner = QueryPlanner(self._df, version=self._index_generation)

    # ------------------------------------------------------------------ API
    def execute(
        self,
        query: ast.QueryNode,
        engine: str = AUTO,
        top_k: int | None = None,
        explain: bool = False,
        trace=None,
        plan: PhysicalPlan | None = None,
    ) -> EvaluationResult:
        """Evaluate a parsed (closed) surface query.

        ``engine`` may be ``"auto"`` (default) or one of ``"bool"``,
        ``"ppred"``, ``"npred"``, ``"comp"`` to force a specific evaluation
        algorithm; forcing an engine below the query's class raises
        :class:`UnsupportedQueryError`.

        ``top_k`` pushes the ranking cut into execution: matching nodes are
        fed to a score-bounded :class:`~repro.engine.topk.TopKCollector`
        while the engines run, so only candidates whose score upper bound
        can still reach the current top-``k`` floor are actually scored.
        ``node_ids`` (and with it the match count) stays complete; the
        returned ranking is the exact best-``k`` prefix of the full one.

        ``explain=True`` attaches an EXPLAIN ANALYZE payload (per-cursor
        operation counts, top-k collector statistics) to the result's
        ``explain`` field; ``trace`` is an optional
        :class:`~repro.telemetry.trace.Span` receiving an execution span.
        Both observe the run without changing any returned byte.

        ``plan`` injects a precomputed :class:`PhysicalPlan` (the scatter
        layer ships the coordinator's plan to every shard this way) whose
        ``language_class`` and ``engine`` are trusted instead of classifying
        again; when omitted, this executor's own planner produces one per
        its ``optimizer`` mode.  COMP runs without a plan.
        """
        return self._execute(
            query, engine, top_k=top_k, explain=explain, trace=trace, plan=plan
        )

    def execute_many(
        self,
        queries: Sequence[ast.QueryNode],
        engine: str = AUTO,
        top_k: int | None = None,
        explain: bool = False,
        trace=None,
        plans: "Sequence[PhysicalPlan | None] | None" = None,
    ) -> list[EvaluationResult]:
        """Evaluate a batch of queries, amortising per-query setup.

        One :class:`CursorFactory` is shared by the whole batch (each
        result's ``cursor_stats`` reports only its own query's delta) and
        extracted plans are cached by canonical query key, so a batch that
        repeats query shapes -- including commuted variants of one shape --
        skips re-planning.  ``top_k`` applies the pushdown of
        :meth:`execute` to every query in the batch; ``explain``/``trace``
        instrument each query exactly as in :meth:`execute`.  ``plans``
        optionally supplies one precomputed physical plan (or ``None``) per
        query, aligned by position.
        """
        check_top_k(top_k)
        if plans is not None and len(plans) != len(queries):
            raise ValueError(
                f"got {len(plans)} plans for {len(queries)} queries"
            )
        factory = CursorFactory(mode=self.access_mode)
        plan_cache: dict[tuple[str, str], object] = {}
        results = []
        snapshot = factory.checkpoint()
        for position, query in enumerate(queries):
            result = self._execute(
                query, engine, factory, plan_cache, top_k,
                explain=explain, trace=trace,
                plan=plans[position] if plans is not None else None,
            )
            total = factory.checkpoint()
            if result.cursor_stats is not None:
                result.cursor_stats = total.delta_since(snapshot)
            snapshot = total
            results.append(result)
        return results

    # ------------------------------------------------------------- internals
    def _current_index(self) -> InvertedIndex:
        """The index view this query should evaluate against.

        A live index (:class:`repro.segments.live_index.LiveIndex`) hands
        out per-query snapshots: every cursor the query opens then reads one
        consistent set of segments, no matter what concurrent writers do.
        Static indexes are their own (trivially consistent) view.
        """
        snapshot = getattr(self.index, "snapshot", None)
        if snapshot is not None:
            return snapshot()
        return self.index

    def _execute(
        self,
        query: ast.QueryNode,
        engine: str,
        factory: CursorFactory | None = None,
        plan_cache: dict | None = None,
        top_k: int | None = None,
        explain: bool = False,
        trace=None,
        plan: PhysicalPlan | None = None,
    ) -> EvaluationResult:
        check_top_k(top_k)
        shipped = plan is not None
        if shipped:
            # The coordinator that built the plan classified the query and
            # validated the engine choice once, for every shard.
            language_class = LanguageClass(plan.language_class)
            engine_name = plan.engine
        else:
            language_class = classify_query(query, self.registry)
            engine_name = resolve_engine(language_class, engine)
        index = self._current_index()
        if not shipped and engine_name != "comp":
            plan = self.planner.plan(
                query,
                engine=engine_name,
                language_class=language_class.value,
                optimizer=self.optimizer,
                access_mode=self.access_mode,
            )
        effective_mode = plan.access_mode if plan is not None else self.access_mode
        collector = self._make_collector(query, top_k)
        if factory is None and explain:
            # Explain needs per-cursor visibility: inject a factory so the
            # engine registers its cursors here instead of in a private one.
            # Results are unaffected -- engines use a given factory verbatim.
            factory = CursorFactory(mode=effective_mode)
        if factory is not None:
            # Cursors snapshot the mode when opened, so a per-query override
            # on a shared batch factory only affects this query's cursors;
            # restored below so later queries see the configured mode.
            factory.mode = effective_mode
        span = (
            trace.span("executor.execute", engine=engine_name)
            if trace is not None
            else None
        )
        started = time.perf_counter()
        try:
            try:
                node_ids, stats = self._run(
                    index, query, engine_name, factory, plan_cache, collector,
                    access_mode=effective_mode, physical=plan,
                )
            except UnsupportedQueryError:
                # The classifier is intentionally syntactic; if a corner case
                # slips past it (or a caller forced a pipelined engine onto a
                # query it cannot plan), fall back to the always-applicable
                # naive COMP engine rather than failing the search.  A
                # partially fed collector is discarded with the failed
                # attempt, and so is the physical plan -- COMP uses node
                # scans, which the plan has nothing to say about.
                if engine != AUTO and engine_name != "comp":
                    raise
                engine_name = "comp"
                plan = None
                collector = self._make_collector(query, top_k)
                node_ids, stats = self._run(
                    index, query, engine_name, factory, plan_cache, collector,
                    access_mode=effective_mode, physical=None,
                )
        finally:
            if factory is not None:
                factory.mode = self.access_mode
        elapsed = time.perf_counter() - started
        if span is not None:
            span.annotate(rows=len(node_ids))
            span.end()
        if collector is not None:
            scores = collector.scores()
            ranked = collector.ranked()
        else:
            scores = self._score(query, node_ids, engine_name)
            ranked = None
        explain_payload = None
        if explain:
            explain_payload = self._build_explain(
                query, language_class, engine_name, elapsed,
                node_ids, factory, collector, top_k,
                plan=plan, access_mode=effective_mode,
            )
        self._observe(engine_name, elapsed, stats, factory, collector)
        if plan is not None and not shipped and instruments.REGISTRY.enabled:
            # Shipped plans are counted once by the coordinator that built
            # them, not again by every shard that executes them.
            instruments.PLANS_TOTAL.labels(plan.provenance).inc()
        return EvaluationResult(
            node_ids=node_ids,
            language_class=language_class,
            engine=engine_name,
            elapsed_seconds=elapsed,
            scores=scores,
            cursor_stats=stats,
            ranked_limit=top_k if collector is not None else None,
            explain=explain_payload,
            plan=plan.describe() if plan is not None else None,
            _ranked=ranked,
        )

    def _build_explain(
        self,
        query: ast.QueryNode,
        language_class: LanguageClass,
        engine_name: str,
        elapsed: float,
        node_ids: list[int],
        factory: CursorFactory | None,
        collector: TopKCollector | None,
        top_k: int | None,
        plan: PhysicalPlan | None = None,
        access_mode: str | None = None,
    ) -> dict:
        """Assemble the EXPLAIN ANALYZE payload for one finished execution.

        Runs *before* any ``factory.checkpoint()``: the factory's open
        cursors are exactly the ones this query opened (batch drivers
        checkpoint between queries), so the per-operator rows sum to this
        query's ``CursorStats`` delta -- the contract the explain tests pin.
        """
        from repro.telemetry.explain import build_explain, cursor_breakdown

        operators = cursor_breakdown(factory) if factory is not None else []
        top_k_info = None
        if collector is not None:
            top_k_info = {
                "k": collector.k,
                "scored": collector.scored,
                "pruned": collector.pruned,
                "gave_up": collector.gave_up,
            }
        note = None
        if engine_name == "comp":
            note = (
                "comp engine evaluates via node scans, not inverted-list "
                "cursors; no per-cursor counts are available"
            )
        return build_explain(
            query_text=query.to_text(),
            language_class=language_class.value,
            engine=engine_name,
            access_mode=access_mode if access_mode is not None else self.access_mode,
            elapsed_seconds=elapsed,
            rows_produced=len(node_ids),
            operators=operators,
            top_k=top_k_info,
            note=note,
            plan=plan.describe() if plan is not None else None,
        )

    def _observe(
        self,
        engine_name: str,
        elapsed: float,
        stats: CursorStats | None,
        factory: CursorFactory | None,
        collector: TopKCollector | None,
    ) -> None:
        """Fold one query's counters into the metrics registry.

        With a shared batch factory the engine-reported ``stats`` are
        cumulative over the whole batch so far; the cursors this query
        opened are still in ``_open_cursors`` (the batch driver checkpoints
        *after* ``_execute`` returns), so their sum is the per-query delta.
        """
        if not instruments.REGISTRY.enabled:
            return
        per_query = stats
        if stats is not None and factory is not None:
            per_query = CursorStats()
            for cursor in factory._open_cursors:
                per_query.merge(cursor.stats)
        instruments.observe_query(engine_name, elapsed, per_query, collector)

    def _make_collector(
        self,
        query: ast.QueryNode,
        top_k: int | None,
    ) -> TopKCollector | None:
        """The score-bounded collector for one pushdown execution.

        The scoring model is prepared for the query *before* evaluation
        starts (the non-pushdown path prepares it after), so the collector
        can score and bound candidates as the engines produce them.
        """
        if top_k is None:
            return None
        scoring = self.scoring
        if scoring is not None:
            scoring.prepare(sorted(ast.query_tokens(query)))
        return TopKCollector(top_k, scoring)

    def _run(
        self,
        index: InvertedIndex,
        query: ast.QueryNode,
        engine_name: str,
        factory: CursorFactory | None = None,
        plan_cache: dict | None = None,
        collector: TopKCollector | None = None,
        access_mode: str | None = None,
        physical: PhysicalPlan | None = None,
    ) -> tuple[list[int], CursorStats | None]:
        observer = collector.add if collector is not None else None
        mode = access_mode if access_mode is not None else self.access_mode
        if engine_name == "bool":
            engine = BoolEngine(
                index, scoring=None, access_mode=mode, physical=physical
            )
            return engine.evaluate_with_stats(
                query, factory=factory, observer=observer
            )
        if engine_name == "ppred":
            engine = PPredEngine(
                index, self.registry, access_mode=mode, physical=physical
            )
            plan = self._cached_plan(query, engine_name, plan_cache)
            return engine.evaluate_with_stats(
                query, factory=factory, plan=plan, observer=observer
            )
        if engine_name == "npred":
            engine = NPredEngine(
                index,
                self.registry,
                orders=self.npred_orders,
                access_mode=mode,
                physical=physical,
            )
            plan = self._cached_plan(query, engine_name, plan_cache)
            return engine.evaluate_with_stats(
                query, factory=factory, plan=plan, observer=observer
            )
        engine = NaiveCompEngine(index, self.registry)
        node_ids = engine.evaluate(query)
        if observer is not None:
            for node_id in node_ids:
                observer(node_id)
        return node_ids, None

    def _cached_plan(
        self, query: ast.QueryNode, engine_name: str, plan_cache: dict | None
    ):
        """Extract (or fetch from the batch cache) the pipelined plan.

        Keyed by the *canonical* plan IR text, not the surface text, so
        commuted-but-equivalent queries (``a AND b`` vs ``b AND a``) share
        one cache entry.  The cached artifact is still extracted from the
        query as written -- canonicalisation only names the slot.
        """
        if plan_cache is None:
            return None
        from repro.engine.plan import extract_plan

        key = (engine_name, canonical_key(query))
        plan = plan_cache.get(key)
        if plan is None:
            plan = extract_plan(query, self.registry)
            plan_cache[key] = plan
        return plan

    def _index_generation(self) -> "int | None":
        """The data version plans are costed at: the index's generation."""
        return getattr(self.index, "generation", None)

    def _df(self, token: "str | None") -> int:
        """Document frequency for the planner (``None`` = the ANY list).

        Prefers the scoring model's statistics -- which are the *global*
        statistics in sharded and live deployments
        (:class:`~repro.cluster.stats.AggregatedStatistics`,
        :class:`~repro.segments.stats.LiveStatistics`) -- and falls back to
        the index's posting lists for unscored executors.
        """
        statistics = getattr(self.scoring, "statistics", None)
        if token is None:
            if statistics is not None:
                return statistics.node_count
            return len(self._current_index().any_list())
        if statistics is not None:
            return statistics.document_frequency(token)
        return self._current_index().posting_list(token).document_frequency()

    def _score(
        self, query: ast.QueryNode, node_ids: list[int], engine_name: str
    ) -> dict[int, float]:
        if self.scoring is None or not node_ids:
            return {}
        self.scoring.prepare(sorted(ast.query_tokens(query)))
        return {node_id: self.scoring.document_score(node_id) for node_id in node_ids}
