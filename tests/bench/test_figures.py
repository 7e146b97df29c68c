"""Tests for the figure sweeps (run at tiny smoke scale)."""

from __future__ import annotations

import pytest

from repro.bench.figures import (
    FigureScale,
    ablation_npred_orders,
    ablation_scoring,
    figure5,
    figure6,
    figure7,
    figure8,
    run_all,
)
from repro.bench.harness import SERIES


@pytest.fixture(scope="module")
def scale() -> FigureScale:
    return FigureScale.smoke()


def test_figure5_sweeps_token_counts(scale):
    table = figure5(scale)
    assert [point.x_value for point in table.points] == list(scale.token_counts)
    assert "BOOL" in table.series_names()


def test_figure6_sweeps_predicate_counts(scale):
    table = figure6(scale)
    assert [point.x_value for point in table.points] == list(scale.predicate_counts)
    # With zero predicates there is no negative series at that point.
    zero_point = table.points[0]
    assert "NPRED-NEG" not in zero_point.measurements
    with_preds = table.points[-1]
    assert "NPRED-NEG" in with_preds.measurements


def test_figure7_sweeps_collection_sizes(scale):
    table = figure7(scale)
    assert [point.x_value for point in table.points] == list(scale.node_counts)


def test_figure8_sweeps_positions_per_entry(scale):
    table = figure8(scale)
    assert [point.x_value for point in table.points] == list(scale.pos_per_entry_values)


def test_requested_series_subset_is_respected(scale):
    table = figure5(scale, series=("BOOL", "PPRED-POS"))
    for point in table.points:
        assert set(point.measurements) <= {"BOOL", "PPRED-POS"}


def test_run_all_produces_all_four_figures(scale):
    tables = run_all(scale)
    assert set(tables) == {"figure5", "figure6", "figure7", "figure8"}


def test_scale_presets():
    assert FigureScale.paper().num_nodes == 6000
    assert FigureScale.laptop().num_nodes < FigureScale.paper().num_nodes
    assert FigureScale.smoke().num_nodes <= FigureScale.laptop().num_nodes


def test_measured_times_reflect_the_complexity_ordering(scale):
    """COMP should not beat PPRED as the data grows (shape check, generous)."""
    table = figure8(scale)
    last_point = table.points[-1]
    ppred = last_point.seconds("PPRED-POS")
    comp = last_point.seconds("COMP-POS")
    assert ppred is not None and comp is not None
    assert ppred <= comp * 2.0


def test_npred_orders_ablation_compares_both_strategies_on_equal_answers(scale):
    table = ablation_npred_orders(scale)
    assert [point.x_value for point in table.points] == [2, 3, 4]
    assert table.series_names() == ["NPRED-minimal", "NPRED-all"]
    for point in table.points:
        minimal = point.measurements["NPRED-minimal"]
        exhaustive = point.measurements["NPRED-all"]
        assert minimal.matches == exhaustive.matches


def test_npred_orders_ablation_query_negates_only_the_first_two_tokens(scale):
    from repro.bench.workload import workload_queries
    from repro.languages import ast

    for num_tokens in (2, 3, 4):
        query = workload_queries(scale.query_tokens, num_tokens, 1)["NEGATIVE"]
        nodes = list(ast.walk(query))
        bindings = [node for node in nodes if isinstance(node, ast.VarHasToken)]
        predicates = [node for node in nodes if isinstance(node, ast.PredQuery)]
        assert len(bindings) == num_tokens
        assert [(p.name, p.variables) for p in predicates] == [
            ("not_distance", ("p1", "p2"))
        ]


def test_npred_orders_ablation_answers_match_the_comp_oracle(scale):
    from repro.bench.harness import ExperimentHarness
    from repro.bench.workload import workload_queries
    from repro.index.inverted_index import InvertedIndex

    oracle = ExperimentHarness(InvertedIndex(scale.collection()))
    table = ablation_npred_orders(scale)
    for point in table.points:
        query = workload_queries(scale.query_tokens, point.x_value, 1)["NEGATIVE"]
        expected = oracle.time_engine("comp", query).matches
        assert point.measurements["NPRED-minimal"].matches == expected


def test_scoring_ablation_times_bool_and_comp_under_each_model(scale):
    table = ablation_scoring(scale)
    assert [point.x_value for point in table.points] == [
        "unscored",
        "tfidf",
        "probabilistic",
    ]
    assert table.series_names() == ["BOOL", "COMP-POS"]
    for series in ("BOOL", "COMP-POS"):
        matches = {point.measurements[series].matches for point in table.points}
        assert len(matches) == 1  # scoring never changes which nodes match
