"""Every product shape answers every harness query as the calculus does.

For each (shape, query) the full ranking must hold exactly the calculus's
node ids, and equal the reference shape's ids, scores and order; the
shape's ``top_k`` cut must be the reference ranking's prefix with the full
match count.  Each answer that is not a cache hit reports the cursor
counters of the shard executors run one by one, summed (one shard for a
single index), and so does an EXPLAIN's ``cursor_totals``.  A cached shape
answers each query a second time from its cache, identically.  Each shape is built once, on one corpus, and answers
all of that corpus's queries; a forced engine is asked only the queries it
can plan.
"""

from __future__ import annotations

import pytest

from repro.cluster import merge_cursor_stats
from repro.engine.executor import ENGINE_CLASS
from repro.languages.classify import can_evaluate, classify_query

from equivalence.cases import CORPUS_SEEDS, case, pairs, plannable
from equivalence.generator import commute
from equivalence.shapes import SHAPES


def runs(shape, query) -> bool:
    """A forced engine runs the queries of its class that it can plan."""
    if shape.engine == "auto":
        return True
    return can_evaluate(
        classify_query(query), ENGINE_CLASS[shape.engine]
    ) and plannable(query)


def ask(engine, shape, query, top_k=None):
    if shape.entry == "text":
        query = query.to_text()
    elif shape.entry == "commuted":
        query = commute(query)
    return engine.search(
        query, engine=shape.engine, top_k=top_k, explain=shape.entry == "explain"
    )


def counters(stats):
    return stats.as_extended_dict() if stats is not None else None


def standalone_counters(engine, shape, query, top_k):
    """Cursor counters of the shard executors run one by one on the plan
    the coordinator ships them, summed."""
    if shape.entry == "commuted":
        query = commute(query)
    coordinator = engine._coordinator
    plan = coordinator._plan_for(query, shape.engine)
    return counters(
        merge_cursor_stats(
            [
                executor.execute(
                    query, engine=shape.engine, top_k=top_k, plan=plan
                ).cursor_stats
                for executor in coordinator._shard_executors
            ]
        )
    )


def counter_mismatches(engine, shape, query, results, top_k) -> list[str]:
    if results.metadata["cache"] == "hit":
        # A hit replays the counters of the evaluation that filled it.
        return []
    if results.engine == "comp":
        # COMP walks no cursors; running it again per shard would only
        # repeat its cost.
        expected = None
    else:
        expected = standalone_counters(engine, shape, query, top_k)
    found = []
    if counters(results.cursor_stats) != expected:
        found.append(f"top-{top_k} counters {counters(results.cursor_stats)}")
    if shape.entry == "explain" and expected is not None:
        totals = results.metadata["explain"]["cursor_totals"]
        if totals != expected:
            found.append(f"top-{top_k} EXPLAIN cursor_totals {totals}")
    return [f"{message} != shard sum {expected}" for message in found]


def mismatches(engine, shape, case, position) -> list[str]:
    query = case.queries[position]
    expected_ids = case.calculus(position)
    expected = case.reference(shape.scoring, position)
    found = []
    full = ask(engine, shape, query)
    if sorted(full.node_ids) != expected_ids:
        found.append(f"ids {sorted(full.node_ids)} != calculus {expected_ids}")
    if pairs(full) != expected:
        found.append(f"ranking {pairs(full)} != reference {expected}")
    if full.total_matches != len(expected_ids):
        found.append(f"total_matches {full.total_matches} != {len(expected_ids)}")
    cut = ask(engine, shape, query, shape.top_k)
    if pairs(cut) != expected[: shape.top_k]:
        found.append(f"top-{shape.top_k} {pairs(cut)} != {expected[: shape.top_k]}")
    if cut.total_matches != len(expected_ids):
        found.append(f"top-{shape.top_k} total_matches {cut.total_matches}")
    found += counter_mismatches(engine, shape, query, full, None)
    found += counter_mismatches(engine, shape, query, cut, shape.top_k)
    if shape.cache_size and shape.entry != "explain":
        again = ask(engine, shape, query)
        if again.metadata["cache"] != "hit" or pairs(again) != pairs(full):
            found.append(f"repeat {again.metadata['cache']}: {pairs(again)}")
    return [f"{query.to_text()}: {message}" for message in found]


#: Each shape runs on one corpus; the shapes alternate between the seeds.
SHAPE_CASES = [
    pytest.param(shape, seed, position, id=f"{shape.name}-q{position:02d}")
    for number, shape in enumerate(SHAPES)
    for seed in [CORPUS_SEEDS[number % len(CORPUS_SEEDS)]]
    for position, query in enumerate(case(seed).queries)
    if runs(shape, query)
]


@pytest.fixture(scope="session")
def built(tmp_path_factory):
    """Build each shape's engine once, on its corpus; close them all at the end."""
    engines = {}

    def engine(shape, seed):
        if shape not in engines:
            directory = tmp_path_factory.mktemp(shape.name)
            engines[shape] = shape.build(case(seed).texts, directory)
        return engines[shape]

    yield engine
    for engine_ in engines.values():
        engine_.close()


@pytest.mark.parametrize(("shape", "seed", "position"), SHAPE_CASES)
def test_shape_equals_the_calculus_and_the_reference(built, shape, seed, position):
    engine = built(shape, seed)
    assert sorted(engine.collection.node_ids()) == case(seed).collection.node_ids()
    found = mismatches(engine, shape, case(seed), position)
    assert not found, "\n".join(found)


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_every_corpus_holds_an_empty_and_a_repeated_node(seed):
    """The nodes that make ``EVERY``, ``NOT``, zero-length scoring and the
    top-k tie-break observable are in every corpus the shapes run on."""
    texts = case(seed).texts
    assert "" in texts
    assert len(set(texts)) < len(texts)
