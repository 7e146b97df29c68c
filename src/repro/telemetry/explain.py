"""EXPLAIN ANALYZE payloads: build and render per-operator trees.

The paper's evaluation methodology *is* cursor-op counting -- fig3-fig8 plot
``next_entry`` / ``get_positions`` charges per query.  This module turns
that methodology into a runtime surface: after an instrumented execution,
the executor harvests each cursor it opened (one cursor per query token is
one operator leaf) and this module assembles the JSON payload that
``engine.search(..., explain=True)`` attaches to the result metadata, the
HTTP API returns under ``"explain"``, and ``repro explain`` renders as a
tree.

Contract (pinned by ``tests/telemetry/test_explain.py``): the sum of the
per-operator counts equals the result's ``CursorStats`` delta exactly, and
an explained search returns results bit-identical to ``explain=False`` --
explain *observes* the execution, it never changes it.
"""

from __future__ import annotations

from repro.index.cursor import CursorFactory, CursorStats

#: Count keys rendered for each operator, in display order.
COUNT_KEYS = (
    "next_entry_calls",
    "get_positions_calls",
    "positions_returned",
    "seek_calls",
    "seek_probes",
)

#: Short column names used by the tree renderer.
_SHORT = {
    "next_entry_calls": "next",
    "get_positions_calls": "get_pos",
    "positions_returned": "positions",
    "seek_calls": "seek",
    "seek_probes": "probes",
}


def cursor_breakdown(factory: CursorFactory) -> "list[dict]":
    """One operator row per cursor the factory opened for this query.

    Must run *before* ``factory.checkpoint()`` folds the cursors away.  A
    multi-segment cursor (live index) reports how many segment parts it
    merged; its parts share one stats object, so the row's counts already
    cover every part.
    """
    rows = []
    for cursor in factory._open_cursors:
        parts = getattr(cursor, "_parts", None)
        rows.append(
            {
                "operator": type(cursor).__name__,
                "token": cursor.token,
                "segments": len(parts) if parts is not None else 1,
                "counts": cursor.stats.as_extended_dict(),
            }
        )
    return rows


def sum_counts(operators: "list[dict]") -> CursorStats:
    """Fold operator rows back into one :class:`CursorStats` total."""
    total = CursorStats()
    for row in operators:
        counts = row["counts"]
        total.next_entry_calls += counts.get("next_entry_calls", 0)
        total.get_positions_calls += counts.get("get_positions_calls", 0)
        total.positions_returned += counts.get("positions_returned", 0)
        total.seek_calls += counts.get("seek_calls", 0)
        total.seek_probes += counts.get("seek_probes", 0)
    return total


def build_explain(
    *,
    query_text: str,
    language_class: str,
    engine: str,
    access_mode: str,
    elapsed_seconds: float,
    rows_produced: int,
    operators: "list[dict]",
    top_k: "dict | None" = None,
    note: "str | None" = None,
    plan: "dict | None" = None,
) -> dict:
    """The per-execution explain payload (one single-index evaluation).

    ``plan`` is a physical plan's
    :meth:`~repro.planner.physical.PhysicalPlan.describe` payload; when
    given, each operator row whose token the cost model estimated gains an
    ``estimated_ops`` field next to its observed counts, so the rendered
    tree shows estimate vs observation per operator.
    """
    if plan is not None:
        operators = annotate_estimates(operators, plan)
    payload = {
        "operator": "execute",
        "query": query_text,
        "language_class": language_class,
        "engine": engine,
        "access_mode": access_mode,
        "elapsed_ms": elapsed_seconds * 1000.0,
        "rows_produced": rows_produced,
        "cursor_totals": sum_counts(operators).as_extended_dict(),
        "operators": operators,
    }
    if top_k is not None:
        payload["top_k"] = top_k
    if note is not None:
        payload["note"] = note
    if plan is not None:
        payload["plan"] = plan
    return payload


def observed_ops(counts: dict) -> int:
    """The single observed op number compared against an estimate.

    Sums the op kinds the cost model prices (entry steps, position reads,
    seeks, probes), so each row's estimate and observation share one unit.
    """
    return (
        counts.get("next_entry_calls", 0)
        + counts.get("get_positions_calls", 0)
        + counts.get("seek_calls", 0)
        + counts.get("seek_probes", 0)
    )


def annotate_estimates(operators: "list[dict]", plan: dict) -> "list[dict]":
    """Copy operator rows, attaching the plan's per-token estimated ops."""
    estimates = {
        entry["token"]: entry for entry in plan.get("tokens", [])
    }
    annotated = []
    for row in operators:
        row = dict(row)
        estimate = estimates.get(row.get("token"))
        if estimate is not None:
            row["estimated_ops"] = estimate["estimated_ops"]
            row["planned_role"] = estimate["role"]
        row["observed_ops"] = observed_ops(row.get("counts", {}))
        annotated.append(row)
    return annotated


def build_scatter_explain(
    *,
    query_text: str,
    language_class: str,
    engine: str,
    access_mode: str,
    elapsed_seconds: float,
    rows_produced: int,
    shard_payloads: "list[dict]",
    cache: str,
    top_k: "dict | None" = None,
    plan: "dict | None" = None,
) -> dict:
    """The cluster-level explain payload wrapping per-shard subtrees."""
    totals = CursorStats()
    for shard in shard_payloads:
        totals.merge(sum_counts(shard.get("operators", [])))
    payload = {
        "operator": "scatter",
        "query": query_text,
        "language_class": language_class,
        "engine": engine,
        "access_mode": access_mode,
        "cache": cache,
        "elapsed_ms": elapsed_seconds * 1000.0,
        "rows_produced": rows_produced,
        "shard_count": len(shard_payloads),
        "cursor_totals": totals.as_extended_dict(),
        "shards": shard_payloads,
    }
    if top_k is not None:
        payload["top_k"] = top_k
    if plan is not None:
        payload["plan"] = plan
    return payload


# --------------------------------------------------------------- rendering
def _counts_line(counts: dict) -> str:
    return " ".join(
        f"{_SHORT[key]}={counts.get(key, 0)}" for key in COUNT_KEYS
    )


def _render_operators(operators: "list[dict]", indent: str) -> "list[str]":
    lines = []
    for position, row in enumerate(operators):
        connector = "└─" if position == len(operators) - 1 else "├─"
        segments = row.get("segments", 1)
        seg = f" segments={segments}" if segments != 1 else ""
        cost = ""
        if "estimated_ops" in row:
            cost = (
                f" cost[est={row['estimated_ops']:g} "
                f"obs={row.get('observed_ops', 0)} "
                f"role={row.get('planned_role', '?')}]"
            )
        lines.append(
            f"{indent}{connector} {row['operator']} "
            f"token={row['token']!r}{seg} {_counts_line(row['counts'])}{cost}"
        )
    if not operators:
        lines.append(f"{indent}└─ (no instrumented cursors)")
    return lines


def _render_plan(plan: "dict | None") -> "list[str]":
    if plan is None:
        return []
    line = (
        f"plan: provenance={plan.get('provenance')} "
        f"optimizer={plan.get('optimizer')} "
        f"merge={plan.get('merge_strategy')} "
        f"access_mode={plan.get('access_mode')}"
    )
    if plan.get("join_order"):
        line += " join_order=" + " < ".join(plan["join_order"])
    if plan.get("estimated_cost") is not None:
        line += f" est_cost={plan['estimated_cost']:g}"
    return [line]


def _render_topk(top_k: "dict | None") -> "list[str]":
    if top_k is None:
        return []
    gave_up = "yes" if top_k.get("gave_up") else "no"
    return [
        f"top-k: k={top_k.get('k')} scored={top_k.get('scored')} "
        f"pruned={top_k.get('pruned')} gave_up={gave_up}"
    ]


def render_explain(payload: dict) -> str:
    """Render an explain payload as the tree ``repro explain`` prints."""
    lines: list[str] = []
    if payload.get("operator") == "scatter":
        lines.append(f"EXPLAIN ANALYZE {payload['query']}")
        lines.append(
            f"scatter shards={payload['shard_count']} cache={payload['cache']} "
            f"engine={payload['engine']} class={payload['language_class']} "
            f"access_mode={payload['access_mode']} "
            f"elapsed={payload['elapsed_ms']:.3f} ms "
            f"rows={payload['rows_produced']}"
        )
        lines.extend(_render_plan(payload.get("plan")))
        lines.extend(_render_topk(payload.get("top_k")))
        lines.append(f"cursor totals: {_counts_line(payload['cursor_totals'])}")
        shards = payload["shards"]
        for position, shard in enumerate(shards):
            last = position == len(shards) - 1
            connector = "└─" if last else "├─"
            child_indent = "   " if last else "│  "
            lines.append(
                f"{connector} shard {position}: engine={shard['engine']} "
                f"elapsed={shard['elapsed_ms']:.3f} ms "
                f"rows={shard['rows_produced']} "
                f"{_counts_line(shard['cursor_totals'])}"
            )
            lines.extend(_render_operators(shard["operators"], child_indent))
        return "\n".join(lines)
    lines.append(f"EXPLAIN ANALYZE {payload['query']}")
    lines.append(
        f"engine={payload['engine']} class={payload['language_class']} "
        f"access_mode={payload['access_mode']} "
        f"elapsed={payload['elapsed_ms']:.3f} ms "
        f"rows={payload['rows_produced']}"
    )
    lines.extend(_render_plan(payload.get("plan")))
    lines.extend(_render_topk(payload.get("top_k")))
    if payload.get("note"):
        lines.append(f"note: {payload['note']}")
    lines.append(f"cursor totals: {_counts_line(payload['cursor_totals'])}")
    lines.extend(_render_operators(payload["operators"], ""))
    return "\n".join(lines)
