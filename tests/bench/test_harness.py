"""Tests for the experiment harness and reporting (smoke scale)."""

from __future__ import annotations

import pytest

from repro.bench.harness import SERIES, ExperimentHarness, ExperimentTable
from repro.bench.reporting import (
    ordering_check,
    render_report,
    shape_summary,
    table_to_csv,
    table_to_text,
)
from repro.corpus.synthetic import generate_inex_like_collection
from repro.exceptions import WorkloadError
from repro.index import InvertedIndex


@pytest.fixture(scope="module")
def harness() -> ExperimentHarness:
    collection = generate_inex_like_collection(
        num_nodes=40, tokens_per_node=60, pos_per_entry=2
    )
    return ExperimentHarness(InvertedIndex(collection), repeats=1)


@pytest.fixture(scope="module")
def point(harness):
    return harness.run_point(
        3, ["usability", "software", "testing"], num_tokens=3, num_predicates=2
    )


def test_run_point_measures_every_series(point):
    assert set(point.measurements) == set(SERIES)
    for measurement in point.measurements.values():
        assert measurement.elapsed_seconds >= 0
        assert measurement.matches >= 0


def test_all_engines_report_consistent_match_counts_for_positive_series(point):
    # PPRED, NPRED and COMP all evaluate the same positive-predicate query.
    matches = {
        name: point.measurements[name].matches
        for name in ("PPRED-POS", "NPRED-POS", "COMP-POS")
    }
    assert len(set(matches.values())) == 1, matches


def test_negative_series_agree_with_each_other(point):
    assert (
        point.measurements["NPRED-NEG"].matches
        == point.measurements["COMP-NEG"].matches
    )


def test_time_engine_rejects_unknown_engine(harness):
    from repro.bench.workload import bool_query

    with pytest.raises(WorkloadError):
        harness.time_engine("quantum", bool_query(["usability"]))


def test_scoring_model_reaches_the_score_propagating_engines(harness):
    from repro.scoring.base import get_model

    model = get_model("tfidf", harness.index.statistics)
    scored = ExperimentHarness(harness.index, scoring=model)
    for engine_name in ("bool", "comp"):
        assert scored._evaluator(engine_name).__self__.scoring is model
        assert harness._evaluator(engine_name).__self__.scoring is None


def test_scored_engines_propagate_scores_over_the_unscored_answers(harness, point):
    from repro.bench.workload import workload_queries
    from repro.scoring.base import get_model

    queries = workload_queries(["usability", "software", "testing"], 3, 2)
    model = get_model("tfidf", harness.index.statistics)
    scored = ExperimentHarness(harness.index, scoring=model)
    bool_engine = scored._evaluator("bool").__self__
    bool_scores = bool_engine.evaluate_scored(queries["BOOL"])
    assert sorted(bool_scores) == harness._evaluator("bool")(queries["BOOL"])
    comp_engine = scored._evaluator("comp").__self__
    comp_result = comp_engine.evaluate_full(queries["POSITIVE"])
    assert comp_result.node_ids == harness._evaluator("comp")(queries["POSITIVE"])
    for scores in (bool_scores, comp_result.scores):
        assert scores, "the query should match something"
        assert all(score > 0 for score in scores.values())
    assert scored.time_engine("comp", queries["POSITIVE"]).matches == (
        point.measurements["COMP-POS"].matches
    )


def _timed_table(timings: dict[str, float]) -> ExperimentTable:
    from repro.bench.harness import ExperimentPoint, Measurement

    point = ExperimentPoint(2)
    for series, seconds in timings.items():
        point.measurements[series] = Measurement(series, seconds, 1)
    return ExperimentTable("Ablation: NPRED orders", "query tokens", [point])


def test_shape_summary_reports_the_npred_orders_claim():
    held = shape_summary(_timed_table({"NPRED-minimal": 0.001, "NPRED-all": 0.004}))
    assert held == ["[OK] NPRED-minimal is never slower than NPRED-all"]
    broken = shape_summary(_timed_table({"NPRED-minimal": 0.010, "NPRED-all": 0.001}))
    assert broken == ["[VIOLATED] NPRED-minimal is never slower than NPRED-all"]


def test_shape_summary_skips_claims_whose_series_are_absent(point):
    table = ExperimentTable("demo", "query tokens", [point])
    assert not any("NPRED-minimal" in line for line in shape_summary(table))
    scoring_only = _timed_table({"BOOL": 0.001})
    assert shape_summary(scoring_only) == []


def test_table_text_keeps_non_numeric_x_values():
    from repro.bench.harness import ExperimentPoint, Measurement

    table = ExperimentTable("Ablation: scoring overhead", "scoring")
    for model in ("unscored", "tfidf"):
        point = ExperimentPoint(model)
        point.measurements["BOOL"] = Measurement("BOOL", 0.002, 5)
        table.points.append(point)
    lines = table_to_text(table).splitlines()
    assert lines[2].split() == ["scoring", "BOOL", "(ms)"]
    assert [line.split()[0] for line in lines[4:]] == ["unscored", "tfidf"]
    assert lines[4].split()[1] == "2.000"


def test_repeats_must_be_positive():
    collection = generate_inex_like_collection(num_nodes=10, pos_per_entry=2)
    with pytest.raises(WorkloadError):
        ExperimentHarness(InvertedIndex(collection), repeats=0)


def test_experiment_table_rows_and_series(point):
    table = ExperimentTable("demo", "query tokens", [point])
    rows = table.to_rows()
    assert rows[0]["query tokens"] == 3
    assert set(table.series_names()) == set(SERIES)
    curve = table.series("BOOL")
    assert curve and curve[0][0] == 3


def test_reporting_renders_text_and_csv(point):
    table = ExperimentTable("demo", "query tokens", [point])
    text = table_to_text(table)
    assert "demo" in text and "BOOL (ms)" in text
    csv_text = table_to_csv(table)
    assert csv_text.splitlines()[0].startswith("query tokens,")
    assert render_report([table])


def test_ordering_check_and_shape_summary(point):
    table = ExperimentTable("demo", "query tokens", [point])
    # A series is trivially "not slower" than itself.
    assert ordering_check(table, "BOOL", "BOOL")
    summary = shape_summary(table)
    assert summary, "shape summary should contain at least one claim"
    assert all(line.startswith("[") for line in summary)
