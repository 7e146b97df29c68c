"""Unit tests of the score-bounded top-k pushdown (``repro.engine.topk``).

The cross-layer exactness matrix (engines x access modes x scorers x shard
counts x live/static) lives in ``tests/cluster/test_topk_equivalence.py``;
this module pins the building blocks:

* :func:`check_top_k` validation, uniformly raised at every entry point;
* :class:`TopKCollector` heap semantics, pruning and its exactness on
  adversarial score/id streams;
* the scoring models' ``score_upper_bound`` contract
  (``bound >= document_score`` for every node, any query);
* executor-level invariants: complete ``node_ids`` under pruning, partial
  ``scores``, and that pruning actually skips document scores.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import FullTextEngine
from repro.corpus import Collection, ContextNode
from repro.core.query import parse_query
from repro.engine.executor import Executor
from repro.engine.topk import TopKCollector, check_top_k
from repro.index import InvertedIndex
from repro.scoring.base import ScoringModel, get_model

TOKENS = ["alpha", "beta", "gamma", "delta"]


@pytest.fixture(scope="module")
def collection() -> Collection:
    texts = [
        "alpha beta gamma software",
        "beta beta gamma usability",
        "alpha alpha alpha beta",
        "delta gamma beta alpha delta",
        "software usability and testing",
        "alpha delta delta gamma beta alpha",
        "gamma gamma gamma",
        "beta alpha",
    ]
    return Collection.from_texts(texts, name="topk-unit")


@pytest.fixture(scope="module")
def index(collection) -> InvertedIndex:
    return InvertedIndex(collection)


# ------------------------------------------------------------- check_top_k
@pytest.mark.parametrize("bad", [0, -1, -100])
def test_check_top_k_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        check_top_k(bad)


@pytest.mark.parametrize("bad", [1.5, "3", True])
def test_check_top_k_rejects_non_integers(bad):
    with pytest.raises(ValueError):
        check_top_k(bad)


def test_check_top_k_passes_none_and_positive():
    assert check_top_k(None) is None
    assert check_top_k(7) == 7


def test_validation_is_uniform_across_entry_points(collection):
    single = FullTextEngine.from_collection(collection, scoring="tfidf")
    sharded = FullTextEngine.from_collection(
        collection, scoring="tfidf", shards=2
    )
    for engine in (single, sharded):
        with pytest.raises(ValueError):
            engine.search("'alpha'", top_k=0)
        with pytest.raises(ValueError):
            engine.explain("'alpha'", analyze=True, top_k=-3)
    sharded.close()


def test_cli_rejects_non_positive_top_k(capsys):
    from repro.cli import build_argument_parser

    parser = build_argument_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["search", "index.json", "'alpha'", "--top-k", "0"])
    assert "must be >= 1" in capsys.readouterr().err


# ------------------------------------------------------------ TopKCollector
class _FixedScores(ScoringModel):
    """A deterministic model with separately controllable upper bounds."""

    name = "fixed"

    def __init__(self, scores: dict[int, float], bounds: dict[int, float]):
        self._scores = scores
        self._bounds = bounds
        self.score_calls = 0

    def document_score(self, node_id: int) -> float:
        self.score_calls += 1
        return self._scores[node_id]

    def score_upper_bound(self, node_id: int) -> float:
        return self._bounds[node_id]


def test_collector_matches_sort_then_slice_on_adversarial_ties():
    scores = {1: 0.5, 2: 0.5, 3: 0.7, 4: 0.5, 5: 0.2, 6: 0.7}
    bounds = {nid: score for nid, score in scores.items()}  # exactly tight
    collector = TopKCollector(3, _FixedScores(scores, bounds))
    for nid in [5, 2, 6, 1, 4, 3]:  # scrambled arrival order
        collector.add(nid)
    expected = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:3]
    assert collector.ranked() == expected


def test_collector_prunes_on_upper_bound_without_scoring():
    scores = {1: 1.0, 2: 0.9, 3: 0.1, 4: 0.05}
    bounds = {1: 1.0, 2: 0.95, 3: 0.2, 4: 0.1}
    model = _FixedScores(scores, bounds)
    collector = TopKCollector(2, model)
    for nid in [1, 2, 3, 4]:
        collector.add(nid)
    # Nodes 3 and 4 have bounds below the floor (0.9): never scored.
    assert model.score_calls == 2
    assert collector.pruned == 2
    assert collector.scored == 2
    assert collector.ranked() == [(1, 1.0), (2, 0.9)]


def test_collector_tie_on_bound_keeps_lower_id():
    # Floor is (0.5, id=3); a later node with bound == 0.5 and a *lower* id
    # must be scored (it wins the tie-break), a higher id must be skipped.
    scores = {3: 0.5, 9: 0.8, 2: 0.5, 7: 0.5}
    bounds = dict(scores)
    model = _FixedScores(scores, bounds)
    collector = TopKCollector(2, model)
    for nid in [3, 9, 2, 7]:
        collector.add(nid)
    assert collector.ranked() == [(9, 0.8), (2, 0.5)]
    assert collector.pruned == 1  # node 7 skipped, node 2 scored


def test_collector_unscored_keeps_first_k_ids_and_empty_scores():
    collector = TopKCollector(3, None)
    for nid in [4, 1, 9, 2, 8]:
        collector.add(nid)
    assert collector.ranked() == [(1, 0.0), (2, 0.0), (4, 0.0)]
    assert collector.scores() == {}


@settings(max_examples=60, deadline=None)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=30
    ),
    k=st.integers(min_value=1, max_value=8),
    slack=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_collector_property_equals_full_sort(scores, k, slack):
    table = {idx: score for idx, score in enumerate(scores)}
    bounds = {idx: score + slack for idx, score in table.items()}
    collector = TopKCollector(k, _FixedScores(table, bounds))
    for nid in table:
        collector.add(nid)
    expected = sorted(table.items(), key=lambda p: (-p[1], p[0]))[:k]
    assert collector.ranked() == expected


# ----------------------------------------------------- upper-bound contract
@pytest.mark.parametrize("model_name", ["tfidf", "probabilistic"])
def test_score_upper_bound_dominates_document_score(index, model_name):
    model = get_model(model_name, index.statistics)
    for query_tokens in (["alpha"], ["alpha", "beta"], TOKENS, ["missing"]):
        model.prepare(sorted(query_tokens))
        for node_id in index.node_ids():
            assert model.score_upper_bound(node_id) >= model.document_score(
                node_id
            ), (model_name, query_tokens, node_id)


documents = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=12)


@settings(max_examples=40, deadline=None)
@given(
    docs=st.lists(documents, min_size=1, max_size=8),
    query_tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4),
    model_name=st.sampled_from(["tfidf", "probabilistic"]),
)
def test_upper_bound_contract_on_random_corpora(docs, query_tokens, model_name):
    nodes = [
        ContextNode.from_tokens(idx, tokens, sentence_length=3, paragraph_length=5)
        for idx, tokens in enumerate(docs)
    ]
    index = InvertedIndex(Collection.from_nodes(nodes))
    model = get_model(model_name, index.statistics)
    model.prepare(sorted(query_tokens))
    for node_id in index.node_ids():
        assert model.score_upper_bound(node_id) >= model.document_score(node_id)


def test_base_model_bound_defaults_to_inf(index):
    class Minimal(ScoringModel):
        def document_score(self, node_id: int) -> float:
            return 1.0

    model = Minimal(index.statistics)
    model.prepare(["alpha"])
    assert model.score_upper_bound(0) == math.inf


# ------------------------------------------------------- executor invariants
def test_pruned_result_keeps_complete_node_ids(index):
    executor = Executor(index, scoring=get_model("tfidf", index.statistics))
    query = parse_query("'alpha' OR 'gamma'").node
    full = executor.execute(query)
    pruned = executor.execute(query, top_k=2)
    assert pruned.node_ids == full.node_ids  # total_matches stays exact
    assert pruned.ranked() == full.ranked()[:2]
    assert pruned.ranked_limit == 2
    assert len(pruned.scores) <= len(full.scores)


def test_pushdown_skips_document_scores():
    # One document is overwhelmingly about 'beta'; the rest mention it once
    # amid filler, so their upper bounds sit far below the top-1 floor and
    # the pushdown must skip their document scores entirely.
    texts = ["beta beta beta beta beta beta"] + [
        f"beta filler{i} extra{i} other{i} more{i} noise{i} padding{i}"
        for i in range(20)
    ]
    skewed = InvertedIndex(Collection.from_texts(texts))
    calls = {"count": 0}
    model = get_model("tfidf", skewed.statistics)
    original = model.document_score

    def counting(node_id):
        calls["count"] += 1
        return original(node_id)

    model.document_score = counting
    executor = Executor(skewed, scoring=model)
    query = parse_query("'beta'").node
    full = executor.execute(query)
    full_calls = calls["count"]
    assert full_calls == len(texts)
    calls["count"] = 0
    pruned = executor.execute(query, top_k=1)
    assert pruned.ranked() == full.ranked()[:1]
    assert calls["count"] < full_calls


def test_explain_pushdown_matches_execute(index):
    """EXPLAIN ANALYZE observes the pushdown without changing its answer."""
    executor = Executor(index, scoring=get_model("probabilistic", index.statistics))
    for text in ("'alpha'", "'beta' AND 'gamma'", "'alpha' OR 'delta'"):
        query = parse_query(text).node
        explained = executor.execute(query, top_k=2, explain=True)
        plain = executor.execute(query, top_k=2)
        assert explained.ranked() == plain.ranked()
        assert explained.node_ids == plain.node_ids
        assert explained.explain["top_k"]["k"] == 2
        assert plain.explain is None


def test_comp_fallback_discards_partial_collector(index):
    # An unscored COMP-class query routed through the pushdown must still
    # produce the first-k-ids prefix even when evaluation falls back.
    engine = FullTextEngine.from_collection(Collection.from_texts(
        ["alpha beta", "beta gamma", "alpha gamma beta"]
    ))
    query = "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND ordered(p1, p2))"
    full = engine.search(query)
    top = engine.search(query, top_k=1)
    assert [r.node_id for r in top.results] == [
        r.node_id for r in full.results
    ][:1]
    assert top.total_matches == full.total_matches


def test_collector_gives_up_after_fruitless_bound_checks():
    # Bounds that never discriminate: after GIVE_UP_AFTER consecutive
    # non-prunes the collector must stop calling score_upper_bound, and the
    # result must still be the exact top-k.
    count = 2000
    scores = {nid: float(nid % 7) for nid in range(count)}
    bounds = {nid: 100.0 for nid in range(count)}  # hopelessly loose
    model = _FixedScores(scores, bounds)
    bound_calls = {"count": 0}
    original = model.score_upper_bound

    def counting(node_id):
        bound_calls["count"] += 1
        return original(node_id)

    model.score_upper_bound = counting
    collector = TopKCollector(5, model)
    for nid in range(count):
        collector.add(nid)
    assert bound_calls["count"] == TopKCollector.GIVE_UP_AFTER
    assert collector.pruned == 0
    expected = sorted(scores.items(), key=lambda p: (-p[1], p[0]))[:5]
    assert collector.ranked() == expected


def test_exact_score_ties_are_pruned_via_id_tiebreak():
    # A corpus whose top ranks saturate at one exact score: every later
    # tying node must be pruned through the id tie-break, not scored.
    texts = ["alpha beta"] * 40
    index = InvertedIndex(Collection.from_texts(texts))
    model = get_model("probabilistic", index.statistics)
    calls = {"count": 0}
    original = model.document_score

    def counting(node_id):
        calls["count"] += 1
        return original(node_id)

    model.document_score = counting
    executor = Executor(index, scoring=model)
    query = parse_query("'alpha' AND 'beta'").node
    full = executor.execute(query)
    full_calls = calls["count"]
    assert full_calls == 40
    calls["count"] = 0
    pruned = executor.execute(query, top_k=5)
    assert pruned.ranked() == full.ranked()[:5]
    assert calls["count"] == 5  # ties beyond the heap never scored
