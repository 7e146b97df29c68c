"""The two optimizer modes and the plan memo as the executor uses it.

``"off"`` (the default) and ``"on"`` are the only modes; ``"static"`` is
rejected everywhere a mode enters, with a message naming the valid ones.
With the optimizer on, a memoised plan is reused for as long as the
statistics it was costed from are unchanged: a repeated workload builds no
plans on a static index, and a live-index write re-costs.
"""

from __future__ import annotations

import pytest

from repro.bench.workload import workload_queries
from repro.cluster import LiveShardedIndex, ScatterGatherExecutor, ShardedIndex
from repro.cli import build_argument_parser, main
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus.collection import Collection
from repro.engine.executor import Executor
from repro.exceptions import ReproError
from repro.index.inverted_index import InvertedIndex
from repro.index.storage import save_collection
from repro.planner import DEFAULT_OPTIMIZER, OPTIMIZER_MODES, check_optimizer_mode
from repro.scoring.base import get_model


# ------------------------------------------------------------------ two modes
def test_the_modes_are_on_and_off_and_off_is_the_default():
    assert OPTIMIZER_MODES == ("on", "off")
    assert DEFAULT_OPTIMIZER == "off"
    for mode in OPTIMIZER_MODES:
        assert check_optimizer_mode(mode) == mode


def test_check_optimizer_mode_rejects_static():
    with pytest.raises(ReproError, match="expected 'on' or 'off'"):
        check_optimizer_mode("static")


@pytest.mark.parametrize("shards", [1, 2])
def test_full_text_engine_rejects_static(small_synthetic, shards):
    with pytest.raises(ReproError, match="expected 'on' or 'off'"):
        FullTextEngine.from_collection(
            small_synthetic, shards=shards, optimizer="static"
        )


def test_the_cli_defaults_to_off():
    parser = build_argument_parser()
    assert parser.parse_args(["search", "index.json", "'a'"]).optimizer == "off"


def test_repro_search_rejects_static(tmp_path, capsys):
    index_file = tmp_path / "collection.json"
    save_collection(Collection.from_texts(["usability of software"]), index_file)
    with pytest.raises(SystemExit) as raised:
        main(["search", str(index_file), "'software'", "--optimizer", "static"])
    assert raised.value.code == 2
    error = capsys.readouterr().err
    assert "invalid choice: 'static'" in error
    assert "'on'" in error and "'off'" in error


# ---------------------------------------------------------------- plan memo
@pytest.mark.parametrize("explain", [False, True], ids=["execute", "explain"])
def test_a_second_pass_on_an_on_executor_builds_no_plans(small_synthetic, explain):
    index = InvertedIndex(small_synthetic)
    executor = Executor(
        index,
        scoring=get_model("tfidf", index.statistics),
        access_mode="fast",
        optimizer="on",
    )
    nodes = list(workload_queries(["alpha", "beta", "gamma"], 3, 2).values()) + [
        parse_query(text).node
        for text in (
            "'alpha' AND 'beta'",
            "'gamma' AND 'alpha'",
            "'alpha' OR 'beta'",
            "'alpha' AND NOT 'gamma'",
            "dist('alpha', 'beta', 3)",
        )
    ]

    def run_pass():
        return [
            executor.execute(node, top_k=5, explain=explain).ranked()
            for node in nodes
        ]

    first = run_pass()
    built = executor.planner.plans_built
    assert built >= 1
    hits_before = executor.planner.memo_hits
    second = run_pass()
    assert executor.planner.plans_built == built  # 0 plans on the second pass
    assert executor.planner.memo_hits - hits_before == len(nodes)
    assert second == first


SKEWED = ["alpha beta"] * 2 + ["beta filler"] * 10 + ["filler only"] * 5
QUERY = "'alpha' AND 'beta'"


def planned_dfs(results) -> dict:
    return {row["token"]: row["df"] for row in results.plan["tokens"]}


def test_a_live_index_write_recosts_the_plan():
    engine = FullTextEngine.from_collection(
        Collection.from_texts(SKEWED), scoring="tfidf", live=True, optimizer="on"
    )
    try:
        first = engine.search(QUERY)
        assert first.plan["provenance"] == "optimized"
        assert first.plan["join_order"] == ["alpha", "beta"]  # df 2 < 12
        assert engine.search(QUERY).plan["provenance"] == "cached"
        for _ in range(20):
            engine.add_document("alpha filler")  # alpha df 22 > beta df 12
        recosted = engine.search(QUERY)
        assert recosted.plan["provenance"] == "optimized"
        assert recosted.plan["join_order"] == ["beta", "alpha"]
        assert engine.search(QUERY).plan["provenance"] == "cached"
        assert engine.optimizer_stats()["plans_built"] == 2
    finally:
        engine.close()


@pytest.mark.parametrize("write", ["update", "delete"])
def test_every_live_write_kind_recosts_the_plan(write):
    engine = FullTextEngine.from_collection(
        Collection.from_texts(SKEWED), scoring="tfidf", live=True, optimizer="on"
    )
    try:
        assert planned_dfs(engine.search(QUERY)) == {"alpha": 2, "beta": 12}
        if write == "update":
            beta_only = engine.search("'beta' AND NOT 'alpha'").results[0].node_id
            engine.update_document(beta_only, "alpha beta")
            expected = {"alpha": 3, "beta": 12}
        else:
            both = engine.search(QUERY).results[0].node_id
            assert engine.delete_document(both)
            expected = {"alpha": 1, "beta": 11}
        recosted = engine.search(QUERY)
        assert recosted.plan["provenance"] == "optimized"
        assert planned_dfs(recosted) == expected
    finally:
        engine.close()


def test_live_maintenance_keeps_the_memo_warm():
    """Flushes and compactions cannot change results, so they leave the
    generation -- and with it every memoised plan -- alone."""
    engine = FullTextEngine.from_collection(
        Collection.from_texts(SKEWED), scoring="tfidf", live=True, optimizer="on"
    )
    try:
        engine.search(QUERY)
        engine.add_document("alpha filler")
        engine.search(QUERY)
        built = engine.optimizer_stats()["plans_built"]
        engine.flush()
        engine.compact()
        assert engine.search(QUERY).plan["provenance"] == "cached"
        assert engine.optimizer_stats()["plans_built"] == built
    finally:
        engine.close()


@pytest.mark.parametrize("kind", [ShardedIndex, LiveShardedIndex])
def test_a_sharded_mutation_recosts_the_coordinator_plan(kind):
    sharded = kind(Collection.from_texts(SKEWED), 2)
    cluster = ScatterGatherExecutor(
        sharded, scoring="tfidf", cache_size=None, optimizer="on"
    )
    query = parse_query(QUERY).node
    try:
        assert cluster.execute(query).plan["join_order"] == ["alpha", "beta"]
        assert cluster.execute(query).plan["provenance"] == "cached"
        for _ in range(20):
            sharded.add_text("alpha filler")
        recosted = cluster.execute(query)
        assert recosted.plan["provenance"] == "optimized"
        assert recosted.plan["join_order"] == ["beta", "alpha"]
    finally:
        cluster.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_off_plans_defer_and_comp_runs_without_a_plan(small_synthetic, shards):
    engine = FullTextEngine.from_collection(
        small_synthetic, scoring="tfidf", shards=shards
    )
    try:
        results = engine.search("'alpha' AND 'beta'")
        assert results.plan["optimizer"] == "off"
        assert results.plan["provenance"] == "static"
        assert results.plan["merge_strategy"] == "auto"
        comp = engine.search(
            "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' "
            "AND distance(p1, p2, 0))",
            engine="comp",
        )
        assert comp.plan is None
        assert engine.optimizer_stats() == {
            "mode": "off", "plans_built": 0, "memo_hits": 0, "memo_size": 0,
        }
    finally:
        engine.close()
