"""What the optimizer buys, counted in cursor operations instead of seconds.

Two adversarial corpora under the paper access mode, where the builtin
heuristics (``off``) run the sequential merge:

* *skewed df* -- one rare token (df 10) conjoined with a very common one
  (df 950): ``on`` plans a fast-cursor zig-zag led by the rare list and
  touches a handful of entries instead of walking the common list;
* *df ratio 4* -- just below the zig-zag break-even: ``on`` must keep the
  sequential merge, so its cursor work equals ``off``'s exactly.

Results are bit-identical in both modes.  The counts are logical work and
repeat on any machine.
"""

from __future__ import annotations

import pytest

from repro.core.engine import FullTextEngine
from repro.corpus.collection import Collection

SKEWED_QUERY = "'rare' AND 'common'"
RATIO4_QUERY = "'narrow' AND 'wide'"


def _skewed_df_collection(num_docs: int = 1000) -> Collection:
    # "rare" at p % 100 == 1 lies inside the "common" documents
    # (p % 20 != 0), so the conjunction has matches to compare.
    texts = []
    for position in range(num_docs):
        words = []
        if position % 100 == 1:
            words.append("rare")
        if position % 20 != 0:
            words.append("common")
        words.extend(f"filler{position % 7}w{offset}" for offset in range(12))
        texts.append(" ".join(words))
    return Collection.from_texts(texts, name="skewed-df")


def _ratio4_collection(num_docs: int = 1000) -> Collection:
    texts = []
    for position in range(num_docs):
        words = ["narrow"] if position % 4 == 0 else []
        words.append("wide")
        words.extend(f"pad{position % 5}w{offset}" for offset in range(10))
        texts.append(" ".join(words))
    return Collection.from_texts(texts, name="df-ratio-window")


def _run(collection: Collection, query: str, optimizer: str):
    engine = FullTextEngine.from_collection(
        collection, scoring="tfidf", access_mode="paper", optimizer=optimizer
    )
    try:
        ranking = [(r.node_id, r.score) for r in engine.search(query)]
        analyze = engine.explain(query, analyze=True)["analyze"]
    finally:
        engine.close()
    return ranking, analyze["cursor_totals"], analyze["plan"]


@pytest.fixture(scope="module")
def skewed():
    collection = _skewed_df_collection()
    return {mode: _run(collection, SKEWED_QUERY, mode) for mode in ("off", "on")}


@pytest.fixture(scope="module")
def ratio4():
    collection = _ratio4_collection()
    return {mode: _run(collection, RATIO4_QUERY, mode) for mode in ("off", "on")}


def test_skewed_df_answers_are_identical_and_non_empty(skewed):
    off_ranking, _, _ = skewed["off"]
    on_ranking, _, _ = skewed["on"]
    assert len(off_ranking) == 10
    assert on_ranking == off_ranking  # ids, scores and order


def test_skewed_df_off_walks_the_common_list_sequentially(skewed):
    _, totals, plan = skewed["off"]
    assert plan["merge_strategy"] == "auto"
    assert totals["next_entry_calls"] == 962
    assert totals["seek_calls"] == 0
    assert totals["seek_probes"] == 0


def test_skewed_df_on_plans_a_zigzag_led_by_the_rare_list(skewed):
    _, totals, plan = skewed["on"]
    assert plan["merge_strategy"] == "zigzag"
    assert plan["join_order"] == ["rare", "common"]
    assert plan["access_mode"] == "fast"
    assert totals["next_entry_calls"] == 11
    assert totals["seek_calls"] == 10
    assert totals["seek_probes"] == 122


def test_df_ratio4_on_keeps_the_sequential_merge(ratio4):
    off_ranking, off_totals, _ = ratio4["off"]
    on_ranking, on_totals, plan = ratio4["on"]
    assert plan["merge_strategy"] == "sequential"
    assert on_ranking == off_ranking
    assert on_totals == off_totals
    assert on_totals["next_entry_calls"] == 1252
