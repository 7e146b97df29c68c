"""Tests for engine selection and the executor."""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.engine.executor import Executor
from repro.exceptions import UnsupportedQueryError
from repro.languages.classify import LanguageClass
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.algebra import AlgebraEvaluator
from repro.model.calculus import CalculusEvaluator
from repro.scoring import TfIdfScoring

_PARSER = QueryParser(LanguageLevel.COMP)


@pytest.fixture(scope="module")
def executor(figure1_index) -> Executor:
    return Executor(figure1_index)


def run(executor: Executor, text: str, engine: str = "auto"):
    return executor.execute(_PARSER.parse_closed(text), engine=engine)


def test_auto_selects_the_cheapest_engine(executor):
    assert run(executor, "'usability' AND 'software'").engine == "bool"
    assert run(executor, "dist('task', 'completion', 0)").engine == "ppred"
    assert (
        run(
            executor,
            "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'usability' "
            "AND not_distance(p1, p2, 1))",
        ).engine
        == "npred"
    )
    assert run(executor, "EVERY p (p HAS 'usability')").engine == "comp"


def test_language_class_is_reported(executor):
    result = run(executor, "dist('task', 'completion', 0)")
    assert result.language_class is LanguageClass.PPRED


def test_forcing_a_more_general_engine_is_allowed(executor):
    bool_query = "'usability' AND 'software'"
    auto = run(executor, bool_query)
    forced_comp = run(executor, bool_query, engine="comp")
    forced_ppred = run(executor, bool_query, engine="ppred")
    assert forced_comp.engine == "comp"
    assert forced_ppred.engine == "ppred"
    assert auto.node_ids == forced_comp.node_ids == forced_ppred.node_ids


def test_forcing_a_weaker_engine_is_rejected(executor):
    with pytest.raises(UnsupportedQueryError):
        run(executor, "EVERY p (p HAS 'usability')", engine="ppred")
    with pytest.raises(UnsupportedQueryError):
        run(
            executor,
            "SOME p1 SOME p2 (p1 HAS 'a' AND p2 HAS 'b' AND not_ordered(p1, p2))",
            engine="ppred",
        )
    with pytest.raises(UnsupportedQueryError):
        run(executor, "dist('a', 'b', 1)", engine="bool")


def test_unknown_engine_name_is_rejected(executor):
    with pytest.raises(UnsupportedQueryError):
        run(executor, "'usability'", engine="warp-drive")


def test_timing_and_stats_are_populated(executor):
    result = run(executor, "dist('task', 'completion', 0)")
    assert result.elapsed_seconds >= 0
    assert result.cursor_stats is not None
    assert result.cursor_stats.next_entry_calls > 0


def test_scoring_produces_ranked_results(figure1_index):
    executor = Executor(figure1_index, scoring=TfIdfScoring(figure1_index.statistics))
    result = executor.execute(_PARSER.parse_closed("'usability' OR 'databases'"))
    ranked = result.ranked()
    assert [node for node, _ in ranked] != []
    scores = [score for _, score in ranked]
    assert scores == sorted(scores, reverse=True)


def test_results_are_consistent_across_engines(executor):
    query = "dist('task', 'completion', 0) AND NOT 'databases'"
    auto = run(executor, query)
    comp = run(executor, query, engine="comp")
    npred = run(executor, query, engine="npred")
    assert auto.node_ids == comp.node_ids == npred.node_ids


def test_comp_answers_by_the_calculus_never_the_algebra(monkeypatch):
    """Auto COMP, a forced ``comp`` and the fallback all skip the algebra."""

    def refuse(self, expr):
        raise AssertionError("a search evaluated the algebra")

    monkeypatch.setattr(AlgebraEvaluator, "evaluate", refuse)
    engine = FullTextEngine.from_texts(
        ["alpha x beta", "beta alpha", "alpha y y beta", "alpha alpha", "gamma"]
    )
    unplannable = (
        "SOME q (q HAS 'alpha' AND SOME p (distance(p, q, 1))) "
        "AND SOME p (p HAS 'beta')"
    )
    cases = [
        ("EVERY p (p HAS 'alpha')", "auto", LanguageClass.COMP),
        ("SOME p (NOT p HAS 'alpha')", "auto", LanguageClass.COMP),
        ("'alpha' AND 'beta'", "comp", LanguageClass.BOOL_NONEG),
        (unplannable, "auto", LanguageClass.PPRED),
    ]
    calculus = CalculusEvaluator()
    for text, choice, language_class in cases:
        result = engine.search(text, engine=choice, top_k=None)
        assert result.engine == "comp", text
        assert result.language_class is language_class, text
        expected = calculus.evaluate_query(
            parse_query(text).to_calculus(), engine.collection
        )
        assert expected, text
        assert sorted(r.node_id for r in result.results) == expected, text
