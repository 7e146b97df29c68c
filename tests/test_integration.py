"""End-to-end integration tests across module boundaries.

These tests exercise complete user workflows rather than single modules:
tokenize -> index -> persist -> reload -> search with every language and
engine, with and without scoring, and verify that every path returns the same
answers as the calculus oracle.
"""

from __future__ import annotations

import pytest

from repro import Collection, FullTextEngine
from repro.corpus.loaders import load_directory
from repro.corpus.synthetic import SyntheticSpec, generate_collection
from repro.index import InvertedIndex, load_index, save_index
from repro.languages.builders import ordered_near, phrase, term
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.calculus import CalculusEvaluator

_PARSER = QueryParser(LanguageLevel.COMP)

ARTICLES = {
    "intro.txt": """
        Full text search over XML documents combines structured search with
        keyword search. Usability of a query language measures how well users
        achieve efficient task completion.

        This article surveys full text search languages and their semantics.
    """,
    "engine.txt": """
        An inverted list stores for every token the documents and positions
        where it occurs. Query evaluation merges inverted lists.

        Efficient evaluation of proximity predicates requires position
        information inside the inverted list entries.
    """,
    "ranking.txt": """
        Ranking assigns a score to every matching document. TF IDF scoring and
        probabilistic scoring are the most common methods for keyword search.
    """,
}


@pytest.fixture(scope="module")
def article_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("articles")
    for name, text in ARTICLES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


def test_directory_to_search_workflow(article_dir, tmp_path_factory):
    # 1. ingest a directory of text files
    collection = load_directory(article_dir)
    assert len(collection) == 3

    # 2. build and persist the index, then reload it
    index = InvertedIndex(collection)
    path = tmp_path_factory.mktemp("persist") / "articles.json.gz"
    save_index(index, path)
    reloaded = load_index(path)

    # 3. search the reloaded index in all three languages
    engine = FullTextEngine(reloaded, scoring="tfidf")
    keyword = engine.search("'inverted' AND 'lists'")
    proximity = engine.search("dist('task', 'completion', 0)", language="dist")
    structural = engine.search(
        "SOME p1 SOME p2 (p1 HAS 'efficient' AND p2 HAS 'evaluation' "
        "AND samepara(p1, p2) AND ordered(p1, p2))"
    )
    assert keyword.node_ids and proximity.node_ids and structural.node_ids
    # every reported node really contains the query tokens
    for result in keyword:
        node = reloaded.collection.get(result.node_id)
        assert node.contains("inverted") and node.contains("lists")


def test_every_engine_agrees_after_a_disk_round_trip(article_dir, tmp_path_factory):
    collection = load_directory(article_dir)
    path = tmp_path_factory.mktemp("persist2") / "articles.json"
    save_index(InvertedIndex(collection), path)
    reloaded = load_index(path)
    engine = FullTextEngine(reloaded)

    queries = [
        "'keyword' AND 'search'",
        "dist('full', 'text', 0)",
        "SOME p1 SOME p2 (p1 HAS 'inverted' AND p2 HAS 'positions' "
        "AND not_distance(p1, p2, 3))",
        "EVERY p (NOT p HAS 'zebra')",
    ]
    oracle = CalculusEvaluator()
    for text in queries:
        parsed = _PARSER.parse_closed(text)
        expected = oracle.evaluate_query(parsed.to_calculus_query(), reloaded.collection)
        # Without a scoring model the facade preserves the engines' ascending
        # node-id order, so the comparison against the oracle is direct.
        assert engine.search(text).node_ids == expected, text


def test_builders_and_text_queries_agree(article_dir):
    collection = load_directory(article_dir)
    engine = FullTextEngine.from_collection(collection)

    built = engine.search(ordered_near(term("efficient"), phrase("task completion"), 10))
    textual = engine.search(
        "SOME w SOME t1 SOME t2 (w HAS 'efficient' AND t1 HAS 'task' AND "
        "t2 HAS 'completion' AND ordered(t1, t2) AND distance(t1, t2, 0) AND "
        "ordered(w, t1) AND distance(w, t1, 10))"
    )
    assert built.node_ids == textual.node_ids


def test_search_context_subsetting_restricts_answers(article_dir):
    collection = load_directory(article_dir)
    full_engine = FullTextEngine.from_collection(collection)
    all_matches = full_engine.search("'search'").node_ids
    assert len(all_matches) >= 2

    subset = collection.subset(all_matches[:1])
    sub_engine = FullTextEngine.from_collection(subset)
    assert sub_engine.search("'search'").node_ids == all_matches[:1]


def test_large_synthetic_collection_end_to_end():
    spec = SyntheticSpec(
        num_nodes=120,
        tokens_per_node=80,
        vocabulary_size=400,
        query_tokens=("alpha", "beta", "gamma"),
        query_token_document_frequency=0.5,
        query_token_positions_per_entry=3,
        seed=99,
    )
    collection = generate_collection(spec)
    engine = FullTextEngine.from_collection(collection, scoring="probabilistic")

    ppred = engine.search(
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND distance(p1, p2, 30))"
    )
    npred = engine.search(
        "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND not_distance(p1, p2, 30))"
    )
    both = engine.search("'alpha' AND 'beta'")
    assert set(ppred.node_ids) <= set(both.node_ids)
    assert set(npred.node_ids) <= set(both.node_ids)
    assert set(ppred.node_ids) | set(npred.node_ids) == set(both.node_ids)
    # scoring produced probabilities
    assert all(0.0 <= result.score <= 1.0 for result in both)


def test_consistency_between_forced_engines_on_synthetic():
    collection = generate_collection(
        SyntheticSpec(
            num_nodes=60,
            tokens_per_node=50,
            vocabulary_size=200,
            query_tokens=("alpha", "beta"),
            query_token_document_frequency=0.7,
            query_token_positions_per_entry=2,
            seed=5,
        )
    )
    cases = [
        (FullTextEngine.from_collection(collection), "dist('alpha', 'beta', 8)", "ppred"),
        # A block with no token scan of its own: only closed OR conjuncts.
        (
            FullTextEngine.from_texts(
                ["a b c e x y z", "a q q q q b c f", "d e a b", "c e"]
            ),
            "('c' OR 'd') AND ('e' OR 'f')",
            "bool",
        ),
    ]
    for engine, query, auto_engine in cases:
        auto = engine.search(query)
        assert auto.engine == auto_engine
        forced = {
            name: engine.search(query, engine=name).node_ids
            for name in ("ppred", "npred", "comp")
        }
        assert forced["ppred"] == forced["npred"] == forced["comp"] == sorted(
            auto.node_ids
        ), query
