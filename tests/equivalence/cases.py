"""The harness's corpora, queries and memoised answers.

Each corpus seed names one generated corpus and its query list (the fixed
queries, then the generated ones).  The calculus answers each (corpus,
query) once per session; the reference engine (in-memory, paper mode,
optimizer off) ranks it once per scoring model.  Every shape is then
checked against both without recomputing either.  The query lists exist
at collection time, so each test is parametrized by query position and a
failure names its query.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.core.engine import FullTextEngine
from repro.corpus import Collection
from repro.engine.plan import extract_plan
from repro.exceptions import UnsupportedQueryError
from repro.languages import ast
from repro.model.calculus import CalculusEvaluator

from equivalence.generator import fixed_queries, make_queries, make_texts

CORPUS_SEEDS = (1, 2)
NODES = 14
GENERATED_QUERIES = 32


@dataclass
class Case:
    """One corpus, its queries, and their answers as they are first asked."""

    seed: int
    texts: list[str]
    collection: Collection
    queries: list[ast.QueryNode]
    _calculus: dict = field(default_factory=dict)
    _references: dict = field(default_factory=dict)

    def calculus(self, position: int) -> list[int]:
        """The node ids the paper's semantics give, ascending."""
        if position not in self._calculus:
            query = self.queries[position].to_calculus_query()
            self._calculus[position] = CalculusEvaluator().evaluate_query(
                query, self.collection
            )
        return self._calculus[position]

    def reference(self, scoring: "str | None", position: int):
        """The reference engine's full ranking as ``(id, score)`` pairs."""
        if scoring not in self._references:
            self._references[scoring] = (
                FullTextEngine.from_collection(self.collection, scoring=scoring),
                {},
            )
        engine, rankings = self._references[scoring]
        if position not in rankings:
            rankings[position] = pairs(engine.search(self.queries[position]))
        return rankings[position]


def plannable(query: ast.QueryNode) -> bool:
    """Whether the pipelined engines (PPRED, NPRED) can plan ``query``."""
    try:
        extract_plan(query)
    except UnsupportedQueryError:
        return False
    return True


def pairs(results) -> list[tuple[int, float]]:
    return [(result.node_id, result.score) for result in results.results]


@functools.lru_cache(maxsize=None)
def case(seed: int) -> Case:
    """The corpus and queries of ``seed``, built once per session."""
    texts = make_texts(seed, NODES)
    return Case(
        seed,
        texts,
        Collection.from_texts(texts),
        fixed_queries() + make_queries(seed, GENERATED_QUERIES),
    )
