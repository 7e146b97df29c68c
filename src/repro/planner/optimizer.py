"""The cost-based query planner.

:class:`QueryPlanner` is the facade the executor and the scatter layer talk
to.  Given a parsed query it produces a :class:`PhysicalPlan` deciding:

* **join order** -- token posting lists sorted by document frequency
  (cheapest leads), replacing the engines' static rarest-first order;
* **merge strategy** -- zig-zag vs sequential by comparing modelled cursor
  ops (:mod:`repro.planner.cost`), replacing the static
  ``ZIGZAG_SELECTIVITY_RATIO`` threshold;
* **access mode** -- upgrade paper → fast when the chosen strategy only
  exists on the fast path (the engines' algorithms are pinned
  result-identical across modes, so this is score-neutral).

Optimized plans are memoised per ``(canonical key, engine, access mode)``
and reused for as long as the statistics they were costed from stay
unchanged: until the index generation (the ``version`` callable) moves,
which only a write that may change results does.  The memo keeps at most
:data:`MEMO_CAPACITY` plans, evicting the oldest first.  A memo hit is
reported with provenance ``"cached"`` so telemetry can distinguish fresh
planning work from reuse.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.languages import ast
from repro.planner import cost as cost_model
from repro.planner import ir
from repro.planner.physical import (
    MERGE_AUTO,
    MERGE_ZIGZAG,
    PhysicalPlan,
    TokenEstimate,
)

# Sentinel token name for the ANY posting list in join orders / estimates --
# the same name ``IL_ANY`` cursors report, so EXPLAIN rows match the
# estimates without translation.
from repro.index.inverted_index import ANY_TOKEN

DfCallable = Callable[[Optional[str]], int]

#: Most optimized plans one planner memoises; the oldest entry is evicted
#: first, so a stream of distinct queries cannot grow the memo without bound.
MEMO_CAPACITY = 4096


class QueryPlanner:
    """Plans queries against one statistics source.

    ``df`` maps a token to its document frequency; ``df(None)`` must return
    the length of the ANY list (every indexed node).  The executor backs
    this with its index / scoring statistics, the scatter layer with the
    global statistics of all its shards -- so a coordinator plans once and
    ships the same plan to every shard.  ``version``, when given, returns
    the current data version of those statistics (the index generation);
    the memo is cleared whenever it changes.
    """

    def __init__(
        self, df: DfCallable, version: "Callable[[], object] | None" = None
    ) -> None:
        self._df = df
        self._version = version
        self._memo_version: object = None
        self._memo: dict[tuple[str, str, str], PhysicalPlan] = {}
        self.plans_built = 0
        self.memo_hits = 0

    # ----------------------------------------------------------------- plan
    def plan(
        self,
        query: ast.QueryNode,
        *,
        engine: str,
        language_class: str,
        optimizer: str,
        access_mode: str,
        top_k: int | None = None,
        scored: bool = False,
    ) -> PhysicalPlan:
        """The physical plan for ``query`` under ``optimizer`` mode.

        ``"off"`` returns a static plan whose choices all defer to the
        engines' builtin heuristics; ``"on"`` returns a (memoised) optimized
        plan.  ``top_k`` and ``scored`` are accepted for callers that
        describe the execution they plan; no choice depends on them.
        """
        canonical = ir.canonical_key(query)
        if optimizer != "on":
            return PhysicalPlan(
                key=canonical,
                engine=engine,
                language_class=language_class,
                optimizer=optimizer,
                provenance="static",
                access_mode=access_mode,
            )
        memo = self._memo
        if self._version is not None:
            version = self._version()
            if version != self._memo_version:
                memo.clear()
                self._memo_version = version
        memo_key = (canonical, engine, access_mode)
        cached = memo.get(memo_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        plan = self._optimize(
            query,
            canonical=canonical,
            engine=engine,
            language_class=language_class,
            access_mode=access_mode,
        )
        if len(memo) >= MEMO_CAPACITY:
            del memo[next(iter(memo))]
        memo[memo_key] = replace(plan, provenance="cached")
        self.plans_built += 1
        return plan

    def summary(self) -> dict[str, object]:
        """A snapshot for ``/stats`` and doctor output."""
        return {
            "plans_built": self.plans_built,
            "memo_hits": self.memo_hits,
            "memo_size": len(self._memo),
        }

    # ------------------------------------------------------------ internals
    def _optimize(
        self,
        query: ast.QueryNode,
        *,
        canonical: str,
        engine: str,
        language_class: str,
        access_mode: str,
    ) -> PhysicalPlan:
        decides: list[str] = []
        merge_strategy = MERGE_AUTO
        join_order: tuple[str, ...] = ()
        estimates: tuple[TokenEstimate, ...] = ()
        estimated_cost: float | None = None
        chosen_mode = access_mode

        tokens, has_any, _extras = ir.and_group(ir.canonicalize(query))
        merge_tokens = list(tokens) + ([ANY_TOKEN] if has_any else [])
        if engine == "bool" and len(merge_tokens) >= 2:
            merge_strategy, join_order, estimates, estimated_cost = self._plan_merge(
                merge_tokens
            )
            decides.append("merge_strategy")
            decides.append("join_order")
            if merge_strategy == MERGE_ZIGZAG:
                # The zig-zag intersection only runs on the fast cursor path;
                # results are pinned identical across modes, so upgrading is
                # score-neutral and buys the galloping skips.
                chosen_mode = "fast"
                decides.append("access_mode")
        elif engine in ("ppred", "npred"):
            # Positional operators gallop in fast mode with identical
            # results; the planner always takes the cheap path.
            chosen_mode = "fast"
            decides.append("access_mode")
            join_order, estimates, estimated_cost = self._plan_positional(query)
            if join_order:
                decides.append("join_order")

        return PhysicalPlan(
            key=canonical,
            engine=engine,
            language_class=language_class,
            optimizer="on",
            provenance="optimized",
            access_mode=chosen_mode,
            merge_strategy=merge_strategy,
            join_order=join_order,
            estimates=estimates,
            estimated_cost=estimated_cost,
            decides=tuple(decides),
        )

    def _cheapest_first(self, tokens: list[str]) -> list[tuple[str, int]]:
        """``(token, df)`` pairs, cheapest first.

        Ties break on token text so the order is deterministic across
        processes.
        """
        stats = [
            (token, self._df(None if token == ANY_TOKEN else token))
            for token in tokens
        ]
        stats.sort(key=lambda item: (item[1], item[0]))
        return stats

    @staticmethod
    def _zigzag_estimates(
        stats: list[tuple[str, int]],
    ) -> tuple[TokenEstimate, ...]:
        """The cheapest list leads sequentially; every other one is probed."""
        lead = float(stats[0][1])
        estimates = []
        for position, (token, df) in enumerate(stats):
            if position == 0:
                role, ops = "lead", cost_model.SEQ_UNIT * df
            else:
                role, ops = "probe", cost_model.seek_cost(lead, float(df))
            estimates.append(TokenEstimate(token, df, ops, role))
        return tuple(estimates)

    def _plan_merge(
        self, tokens: list[str]
    ) -> tuple[str, tuple[str, ...], tuple[TokenEstimate, ...], float]:
        """Merge strategy + join order for a root conjunction's leaves."""
        stats = self._cheapest_first(tokens)
        strategy, chosen, _rejected = cost_model.merge_decision(
            [float(df) for _, df in stats]
        )
        if strategy == MERGE_ZIGZAG:
            estimates = self._zigzag_estimates(stats)
        else:
            estimates = tuple(
                TokenEstimate(token, df, cost_model.SEQ_UNIT * df, "scan")
                for token, df in stats
            )
        order = tuple(token for token, _ in stats)
        return strategy, order, estimates, chosen

    def _plan_positional(
        self, query: ast.QueryNode
    ) -> tuple[tuple[str, ...], tuple[TokenEstimate, ...], float | None]:
        """Join order for PPRED/NPRED: positive tokens, cheapest first."""
        tokens = sorted(ast.query_tokens(query))
        if not tokens:
            return (), (), None
        stats = self._cheapest_first(tokens)
        estimates = self._zigzag_estimates(stats)
        total = sum(estimate.estimated_ops for estimate in estimates)
        order = tuple(token for token, _ in stats) if len(stats) >= 2 else ()
        return order, estimates, total
