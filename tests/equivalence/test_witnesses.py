"""Repeated and shadowed position variables mean what the calculus says.

The three witnesses on the benchmark's synthetic corpus (seed 1, planted
tokens ``q00``..``q23``), each against :class:`CalculusEvaluator`.  Before
the plan builder renamed variables, a variable bound twice split into
independent scans and a rebinding ``SOME`` reused the outer scan.  A
``SOME`` whose variable only a predicate reads binds no scan, yet a later
sibling ``SOME`` of that name must not become it either.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import FullTextEngine
from repro.corpus import Collection
from repro.corpus.synthetic import SyntheticSpec, generate_collection
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.calculus import CalculusEvaluator

WITNESSES = [
    (20, "SOME p (p HAS 'q02' AND p HAS 'q03')"),
    (200, "SOME p (p HAS 'q00' AND p HAS 'q01')"),
    (
        200,
        "SOME p1 SOME p2 (p1 HAS 'q00' AND p2 HAS 'q01' AND p1 HAS 'q02'"
        " AND ordered(p1, p2))",
    ),
    (
        200,
        "SOME p (p HAS 'q00') AND SOME p SOME p2 (p HAS 'q01' AND p2 HAS 'q02'"
        " AND distance(p, p2, 1))",
    ),
]


@functools.lru_cache(maxsize=None)
def bench_corpus(nodes: int):
    spec = SyntheticSpec(
        num_nodes=nodes,
        tokens_per_node=200,
        vocabulary_size=5000,
        query_tokens=tuple(f"q{i:02d}" for i in range(24)),
        query_token_document_frequency=0.3,
        query_token_positions_per_entry=3,
        sentence_length=12,
        paragraph_length=60,
        seed=1,
    )
    return generate_collection(spec, name="bench")


@pytest.mark.parametrize("engine_name", ["auto", "npred"])
@pytest.mark.parametrize("nodes,text", WITNESSES)
def test_witness_equals_the_calculus(nodes, text, engine_name):
    collection = bench_corpus(nodes)
    query = QueryParser(LanguageLevel.COMP).parse_closed(text)
    expected = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    engine = FullTextEngine.from_collection(collection)
    assert sorted(engine.search(query, engine=engine_name).node_ids) == expected


#: Both conjunct orders: reading ``p`` as the ``'beta'`` scan would answer
#: "alpha within 1 of beta" instead of "alpha and beta".
PREDICATE_ONLY = [
    "SOME q (q HAS 'alpha' AND SOME p (distance(p, q, 1))) AND SOME p (p HAS 'beta')",
    "SOME p (p HAS 'beta') AND SOME q (q HAS 'alpha' AND SOME p (distance(p, q, 1)))",
]


@pytest.mark.parametrize("text", PREDICATE_ONLY)
def test_a_predicate_only_variable_is_not_a_sibling_scan(text):
    collection = Collection.from_texts(["alpha w0 w1 w2 beta", "alpha beta", "beta"])
    query = QueryParser(LanguageLevel.COMP).parse_closed(text)
    expected = CalculusEvaluator().evaluate_query(query.to_calculus_query(), collection)
    assert expected == [0, 1]
    engine = FullTextEngine.from_collection(collection)
    assert sorted(engine.search(query).node_ids) == expected
