"""Every engine that can run a harness query answers it as the calculus does.

The BOOL, PPRED and NPRED engines run in both access modes (NPRED with the
minimal and with all cursor orderings) on every query of every corpus.  The
naive COMP engine runs once per query of the first corpus, for every query
whose calculus nests at most two quantifiers (deeper ones cost it seconds).
"""

from __future__ import annotations

import functools

import pytest

from repro.engine.bool_engine import BoolEngine
from repro.engine.naive_engine import NaiveCompEngine
from repro.engine.npred_engine import NPredEngine
from repro.engine.ppred_engine import PPredEngine
from repro.index import InvertedIndex
from repro.index.cursor import ACCESS_MODES
from repro.languages.classify import LanguageClass, classify_query
from repro.model import calculus as c

from equivalence.cases import CORPUS_SEEDS, case, plannable

BOOL_CLASSES = (LanguageClass.BOOL_NONEG, LanguageClass.BOOL)
PPRED_CLASSES = (LanguageClass.BOOL_NONEG, LanguageClass.PPRED)
NPRED_CLASSES = (*PPRED_CLASSES, LanguageClass.NPRED)


def engines_for(query, index):
    language_class = classify_query(query)
    engines = {}
    if language_class in BOOL_CLASSES:
        for mode in ACCESS_MODES:
            engines[f"bool-{mode}"] = BoolEngine(index, access_mode=mode)
    if not plannable(query):
        return engines
    for mode in ACCESS_MODES:
        if language_class in PPRED_CLASSES:
            engines[f"ppred-{mode}"] = PPredEngine(index, access_mode=mode)
        if language_class in NPRED_CLASSES:
            for orders in ("minimal", "all"):
                engines[f"npred-{orders}-{mode}"] = NPredEngine(
                    index, orders=orders, access_mode=mode
                )
    return engines


def quantifier_depth(expr) -> int:
    below = max((quantifier_depth(child) for child in expr.children()), default=0)
    return below + isinstance(expr, (c.Exists, c.Forall))


@functools.lru_cache(maxsize=None)
def index(seed: int) -> InvertedIndex:
    return InvertedIndex(case(seed).collection)


ENGINE_CASES = [
    pytest.param(seed, position, id=f"s{seed}-q{position:02d}")
    for seed in CORPUS_SEEDS
    for position in range(len(case(seed).queries))
]

#: The naive COMP engine's queries: the first corpus's, at most two
#: quantifiers deep.
NAIVE_CASES = [
    pytest.param(position, id=f"q{position:02d}")
    for position, query in enumerate(case(CORPUS_SEEDS[0]).queries)
    if quantifier_depth(query.to_calculus_query().expr) <= 2
]


@pytest.mark.parametrize(("seed", "position"), ENGINE_CASES)
def test_every_engine_equals_the_calculus(seed, position):
    query = case(seed).queries[position]
    expected = case(seed).calculus(position)
    found = [
        f"{name}: {answer} != calculus {expected}"
        for name, engine in engines_for(query, index(seed)).items()
        if (answer := engine.evaluate(query)) != expected
    ]
    assert not found, f"{query.to_text()}\n" + "\n".join(found)


@pytest.mark.parametrize("position", NAIVE_CASES)
def test_naive_comp_engine_equals_the_calculus(position):
    seed = CORPUS_SEEDS[0]
    naive = NaiveCompEngine(index(seed))
    query = case(seed).queries[position]
    assert naive.evaluate(query) == case(seed).calculus(position), query.to_text()
