"""Tests for the FullTextEngine facade."""

from __future__ import annotations

import pytest

from repro import Collection, FullTextEngine
from repro.exceptions import (
    EvaluationError,
    QuerySemanticsError,
    QuerySyntaxError,
    UnsupportedQueryError,
)
from repro.languages import parse_comp
from repro.languages.classify import LanguageClass
from repro.model.predicates import FunctionPredicate


@pytest.fixture(scope="module")
def engine(figure1_collection) -> FullTextEngine:
    return FullTextEngine.from_collection(figure1_collection, scoring="tfidf")


def test_search_with_query_text(engine):
    results = engine.search("'usability' AND 'software'")
    assert results.node_ids == [0, 1] or set(results.node_ids) == {0, 1}
    assert results.engine == "bool"
    assert results.language_class is LanguageClass.BOOL_NONEG
    assert results.total_matches == 2


def test_search_with_parsed_query_and_ast(engine):
    parsed = engine.parse("dist('task', 'completion', 0)", language="dist")
    from_query = engine.search(parsed)
    from_ast = engine.search(parsed.node)
    assert from_query.node_ids == from_ast.node_ids


def test_search_results_are_ranked_by_score(engine):
    results = engine.search("'usability' OR 'databases'")
    scores = [result.score for result in results]
    assert scores == sorted(scores, reverse=True)
    assert all(result.preview for result in results)


def test_top_k_limits_results_but_keeps_total(engine):
    results = engine.search("'efficient'", top_k=1)
    assert len(results) == 1
    assert results.total_matches == 3


def test_language_restriction_is_enforced(engine):
    with pytest.raises(QuerySyntaxError):
        engine.search("SOME p (p HAS 'usability')", language="bool")
    engine.search("SOME p (p HAS 'usability')", language="comp")


def test_forced_engine_is_used(engine):
    results = engine.search("'usability' AND 'software'", engine="comp")
    assert results.engine == "comp"
    with pytest.raises(UnsupportedQueryError):
        engine.search("EVERY p (p HAS 'usability')", engine="ppred")


def test_unbound_variables_are_rejected(engine):
    with pytest.raises(QuerySemanticsError):
        engine.search("p HAS 'usability'")


def test_explain_reports_class_engine_and_measures(engine):
    explanation = engine.explain(
        "SOME p1 SOME p2 (p1 HAS 'task' AND p2 HAS 'completion' AND ordered(p1, p2))"
    )
    assert explanation["language_class"] == "PPRED"
    assert explanation["engine"] == "ppred"
    assert explanation["measures"]["toks_Q"] == 2
    assert "hasToken" in explanation["calculus"]


def test_from_texts_builder():
    engine = FullTextEngine.from_texts(["alpha beta", "beta gamma"])
    assert engine.search("'beta'").node_ids == [0, 1]
    assert len(engine.collection) == 2


def test_register_custom_predicate_and_query_it():
    engine = FullTextEngine.from_texts(["alpha beta gamma", "gamma beta alpha"])
    engine.register_predicate(
        FunctionPredicate(
            "even_gap", 2, lambda pos, c: (pos[1].offset - pos[0].offset) % 2 == 0
        )
    )
    results = engine.search(
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'gamma' AND even_gap(p1, p2))"
    )
    # gap alpha->gamma is 2 in both documents.
    assert results.node_ids == [0, 1]
    # General predicates are evaluated by the COMP engine.
    assert results.engine == "comp"


def test_search_results_container_helpers(engine):
    results = engine.search("'efficient'")
    assert bool(results)
    assert len(list(iter(results))) == len(results)
    assert "match(es)" in results.summary()
    top = results.top(2)
    assert len(top) == 2
    assert top.total_matches == results.total_matches


def test_engine_rejects_unknown_access_mode():
    with pytest.raises(EvaluationError):
        FullTextEngine.from_texts(["usability testing"], access_mode="warp")


def test_facade_exposes_access_mode():
    engine = FullTextEngine.from_texts(["usability testing"], access_mode="fast")
    assert engine.access_mode == "fast"
    assert engine._coordinator.access_mode == "fast"
