"""TF-IDF scores and bounds are bit-identical to the pre-table formulation.

``TfIdfScoring`` reads ``w(t)`` / ``idf(t)`` from a per-query term table and
``(length, max(unique, 1), ||n||_2)`` from a per-node cache instead of
re-deriving them per token per node.  Only the lookups moved: the float
operations keep their order and association.  The reference below is the
model's code before that change, written against public statistics only, and
the comparison is ``==`` -- an ulp of drift would reorder tied rankings and
break the bit-identity checks of the benchmark and the replay harness.

``tests/scoring/test_determinism.py`` also runs this module under two
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.corpus import Collection, ContextNode
from repro.index import InvertedIndex
from repro.scoring import TfIdfScoring

VOCABULARY = ["a", "b", "c", "d", "e"]
QUERY_VOCABULARY = VOCABULARY + ["absent"]


def _query_norm(statistics, tokens) -> float:
    unique = list(dict.fromkeys(tokens))
    weights = {token: _weight(statistics, token, unique) for token in unique}
    return statistics.query_l2_norm(weights) or 1.0


def _weight(statistics, token, unique) -> float:
    return statistics.idf(token) / max(len(unique), 1)


def reference_document_score(statistics, tokens, node_id) -> float:
    unique = list(dict.fromkeys(tokens))
    node = statistics.node(node_id)
    unique_tokens = max(statistics.unique_token_count(node_id), 1)
    total = 0.0
    for token in unique:
        occurs = node.occurrence_count(token)
        if occurs == 0:
            continue
        tf = occurs / unique_tokens
        total += _weight(statistics, token, unique) * tf * statistics.idf(token)
    norm = statistics.node_l2_norm(node_id) or 1.0
    return total / (norm * _query_norm(statistics, tokens))


def reference_score_upper_bound(statistics, tokens, node_id) -> float:
    unique = list(dict.fromkeys(tokens))
    terms = [
        (
            _weight(statistics, token, unique),
            statistics.idf(token),
            statistics.max_occurrences(token),
        )
        for token in unique
    ]
    length = statistics.node_length(node_id)
    if length == 0:
        return 0.0
    unique_tokens = max(statistics.unique_token_count(node_id), 1)
    total = 0.0
    for weight, idf, max_occurrences in terms:
        capped = max_occurrences if max_occurrences < length else length
        if capped == 0:
            continue
        tf = capped / unique_tokens
        total += weight * tf * idf
    norm = statistics.node_l2_norm(node_id) or 1.0
    return total / (norm * _query_norm(statistics, tokens))


documents = st.lists(st.sampled_from(VOCABULARY), min_size=0, max_size=14)
queries = st.lists(st.sampled_from(QUERY_VOCABULARY), min_size=0, max_size=5)


@settings(max_examples=200, deadline=None)
@given(
    docs=st.lists(documents, min_size=1, max_size=10),
    first=queries,
    second=queries,
)
def test_scores_and_bounds_equal_the_reference_bit_for_bit(docs, first, second):
    nodes = [ContextNode.from_tokens(idx, tokens) for idx, tokens in enumerate(docs)]
    statistics = InvertedIndex(Collection.from_nodes(nodes)).statistics
    model = TfIdfScoring(statistics)
    # Re-preparing the held tokens is free; switching away and back is not.
    for tokens in (first, first, second, first):
        model.prepare(tokens)
        for node_id in range(len(docs)):
            score = model.document_score(node_id)
            bound = model.score_upper_bound(node_id)
            assert score == reference_document_score(statistics, tokens, node_id)
            assert bound == reference_score_upper_bound(statistics, tokens, node_id)
            assert bound >= score
