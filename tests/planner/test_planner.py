"""QueryPlanner behaviour: plan contents, memoisation, memo invalidation."""

from __future__ import annotations

from repro.core.query import parse_query
from repro.index.inverted_index import ANY_TOKEN
from repro.languages import ast
from repro.planner.optimizer import MEMO_CAPACITY, QueryPlanner
from repro.planner.physical import (
    MERGE_AUTO,
    MERGE_SEQUENTIAL,
    MERGE_ZIGZAG,
)


def parse(text: str):
    return parse_query(text).node


def make_planner(dfs: dict, node_count: int = 1000, version=None) -> QueryPlanner:
    return QueryPlanner(
        lambda token: node_count if token is None else dfs.get(token, 0),
        version=version,
    )


def plan(planner, text, *, optimizer="on", engine="bool", top_k=None,
         scored=False, access_mode="paper"):
    query = parse(text) if isinstance(text, str) else text
    return planner.plan(
        query,
        engine=engine,
        language_class="BOOL",
        optimizer=optimizer,
        access_mode=access_mode,
        top_k=top_k,
        scored=scored,
    )


# -------------------------------------------------------------- static plans
def test_off_mode_defers_every_choice_to_the_engine():
    planner = make_planner({"a": 10, "b": 1000})
    artifact = plan(planner, "'a' AND 'b'", optimizer="off")
    assert artifact.provenance == "static"
    assert artifact.optimizer == "off"
    assert artifact.merge_strategy == MERGE_AUTO
    assert artifact.join_order == ()
    assert artifact.access_mode == "paper"
    assert planner.plans_built == 0  # static artifacts are not memoised work


# ----------------------------------------------------------- optimized plans
def test_skewed_conjunction_plans_a_zigzag_and_upgrades_access_mode():
    planner = make_planner({"rare": 10, "common": 1000})
    artifact = plan(planner, "'common' AND 'rare'")
    assert artifact.provenance == "optimized"
    assert artifact.merge_strategy == MERGE_ZIGZAG
    assert artifact.join_order == ("rare", "common")  # cheapest leads
    assert artifact.access_mode == "fast"  # zig-zag only exists on fast path
    assert "merge_strategy" in artifact.decides
    assert artifact.estimated_cost is not None


def test_balanced_conjunction_plans_a_sequential_merge():
    planner = make_planner({"a": 500, "b": 500})
    artifact = plan(planner, "'a' AND 'b'")
    assert artifact.merge_strategy == MERGE_SEQUENTIAL
    assert artifact.access_mode == "paper"  # no reason to leave paper mode


def test_any_leaf_enters_the_merge_under_its_cursor_name():
    planner = make_planner({"a": 10}, node_count=5000)
    artifact = plan(planner, "'a' AND ANY")
    assert ANY_TOKEN in artifact.join_order
    assert artifact.join_order[0] == "a"  # df 10 leads over df 5000


def test_order_for_maps_join_order_onto_engine_token_slots():
    planner = make_planner({"rare": 10, "common": 1000})
    artifact = plan(planner, "'common' AND 'rare'")
    assert artifact.order_for(["common", "rare"]) == [1, 0]
    # A token set the plan did not cover falls back to the builtin order.
    assert artifact.order_for(["common", "other"]) is None


# ------------------------------------------------------------------ memoising
def test_memo_hit_returns_the_same_choices_with_cached_provenance():
    planner = make_planner({"rare": 10, "common": 1000})
    first = plan(planner, "'rare' AND 'common'")
    second = plan(planner, "'rare' AND 'common'")
    assert first.provenance == "optimized"
    assert second.provenance == "cached"
    assert second.merge_strategy == first.merge_strategy
    assert second.join_order == first.join_order
    assert planner.plans_built == 1
    assert planner.memo_hits == 1


def test_commuted_queries_share_one_memo_entry():
    planner = make_planner({"rare": 10, "common": 1000})
    plan(planner, "'rare' AND 'common'")
    commuted = plan(planner, "'common' AND 'rare'")
    assert commuted.provenance == "cached"
    assert planner.plans_built == 1
    assert planner.memo_hits == 1


def test_the_memo_keys_on_engine_and_access_mode():
    planner = make_planner({"a": 100, "b": 150})
    plan(planner, "'a' AND 'b'")
    assert plan(planner, "'a' AND 'b'", access_mode="fast").provenance == "optimized"
    assert plan(planner, "'a' AND 'b'", engine="npred").provenance == "optimized"
    assert planner.plans_built == 3


def test_top_k_and_scoring_share_one_memo_entry():
    planner = make_planner({"a": 100, "b": 150})
    plan(planner, "'a' AND 'b'")
    assert plan(planner, "'a' AND 'b'", top_k=5, scored=True).provenance == "cached"
    assert planner.plans_built == 1


def test_a_version_change_clears_the_memo_and_recosts():
    dfs = {"a": 10, "b": 1000}
    version = [0]
    planner = make_planner(dfs, version=lambda: version[0])
    first = plan(planner, "'a' AND 'b'")
    assert plan(planner, "'a' AND 'b'").provenance == "cached"
    dfs["a"] = 5000  # the statistics move with the data version
    version[0] += 1
    replanned = plan(planner, "'a' AND 'b'")
    assert replanned.provenance == "optimized"
    assert first.join_order == ("a", "b")
    assert replanned.join_order == ("b", "a")
    assert planner.plans_built == 2


def test_without_a_version_the_memo_never_goes_stale():
    dfs = {"a": 10, "b": 1000}
    planner = make_planner(dfs)
    plan(planner, "'a' AND 'b'")
    dfs["a"] = 5000
    for _ in range(3):
        assert plan(planner, "'a' AND 'b'").provenance == "cached"
    assert planner.plans_built == 1


def test_the_memo_is_capped_and_evicts_oldest_first():
    planner = make_planner({})
    queries = [
        ast.AndQuery(ast.TokenQuery(f"t{i}"), ast.TokenQuery(f"u{i}"))
        for i in range(MEMO_CAPACITY + 1000)
    ]
    first = plan(planner, queries[0])
    for query in queries[1:]:
        plan(planner, query)
    assert planner.summary()["memo_size"] <= MEMO_CAPACITY
    assert planner.plans_built == len(queries)
    # The newest entries survive; the oldest were evicted and re-plan to an
    # identical artifact.
    assert plan(planner, queries[-1]).provenance == "cached"
    replanned = plan(planner, queries[0])
    assert replanned.provenance == "optimized"
    assert replanned == first
    assert planner.plans_built == len(queries) + 1


# --------------------------------------------------------------------- stats
def test_summary_reports_plans_built_and_memo_hits():
    planner = make_planner({"a": 100, "b": 150})
    plan(planner, "'a' AND 'b'")
    plan(planner, "'b' AND 'a'")
    summary = planner.summary()
    assert summary["plans_built"] == 1
    assert summary["memo_hits"] == 1
    assert summary["memo_size"] == 1
