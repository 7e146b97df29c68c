"""Seeded inputs: corpus texts and the fixed op stream of each workload.

``--seed`` is consumed here and nowhere else: the program under test receives
generated texts and query strings, never the seed or a workload name.  The
same seed always yields the same corpus and the same op stream (the run prints
the stream's SHA-256 so two runs can be shown to have done identical work).

Every query token is a *planted* token with the same document frequency
(:data:`PLANTED_DF`), so the cost of a query is set by its template (its
language class), not by which tokens the seed happened to draw -- that keeps
the metrics comparable across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass

from repro.corpus.collection import Collection
from repro.corpus.synthetic import SyntheticSpec, generate_collection

PLANTED = tuple(f"q{i:02d}" for i in range(24))
PLANTED_DF = 0.3
PLANTED_POSITIONS = 3
VOCABULARY = 5000
SENTENCE_LENGTH = 12
PARAGRAPH_LENGTH = 60
TOP_K = 10

#: Query templates per language class.  ``{a} {b} {c}`` are planted tokens,
#: ``{k}`` a small distance constant.  Each entry is (canonical spelling,
#: commuted spelling); both spell the same canonical plan, so a result cache
#: keyed on the canonical IR serves either from one entry.
TEMPLATES = {
    "bool": (
        ("'{a}' AND '{b}' AND '{c}'", "'{b}' AND '{c}' AND '{a}'"),
        ("'{a}' AND '{b}' AND NOT '{c}'", "'{b}' AND '{a}' AND NOT '{c}'"),
        ("('{a}' OR '{b}') AND '{c}'", "'{c}' AND ('{b}' OR '{a}')"),
        ("'{a}' AND ('{b}' OR '{c}')", "('{c}' OR '{b}') AND '{a}'"),
    ),
    "ppred": (
        (
            "SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' "
            "AND distance(p1, p2, {k}))",
            "SOME p1 SOME p2 (p2 HAS '{b}' AND p1 HAS '{a}' "
            "AND distance(p1, p2, {k}))",
        ),
        ("dist('{a}', '{b}', {k})", "dist('{a}', '{b}', {k})"),
        (
            "SOME p1 SOME p2 (p1 HAS '{a}' AND p2 HAS '{b}' "
            "AND ordered(p1, p2) AND samepara(p1, p2))",
            "SOME p1 SOME p2 (p2 HAS '{b}' AND p1 HAS '{a}' "
            "AND samepara(p1, p2) AND ordered(p1, p2))",
        ),
    ),
    "npred": (
        (
            "SOME p1 SOME p2 SOME p3 (p1 HAS '{a}' AND p2 HAS '{b}' "
            "AND p3 HAS '{c}' AND not_distance(p1, p2, {k}) "
            "AND ordered(p2, p3))",
            "SOME p1 SOME p2 SOME p3 (p2 HAS '{b}' AND p1 HAS '{a}' "
            "AND p3 HAS '{c}' AND not_distance(p1, p2, {k}) "
            "AND ordered(p2, p3))",
        ),
        (
            "SOME p1 SOME p2 SOME p3 (p1 HAS '{a}' AND p2 HAS '{b}' "
            "AND p3 HAS '{c}' AND not_ordered(p1, p2) "
            "AND not_samesentence(p2, p3))",
            "SOME p1 SOME p2 SOME p3 (p3 HAS '{c}' AND p1 HAS '{a}' "
            "AND p2 HAS '{b}' AND not_ordered(p1, p2) "
            "AND not_samesentence(p2, p3))",
        ),
    ),
}

#: Class shares of a query mix (BOOL / PPRED / NPRED), see README "Mixes".
MIX = (("bool", 0.60), ("ppred", 0.25), ("npred", 0.15))


@dataclass
class Corpus:
    """Generated source texts plus the generator's own tokenised form.

    ``collection`` is what the synthetic generator produced directly; the
    program under test only ever receives ``texts`` and tokenises them
    itself.  The reference engine runs on ``collection`` (so tokeniser
    output is cross-checked as a side effect) and drops it when done.
    """

    collection: "Collection | None"
    texts: list[str]
    text_bytes: int


def render_text(tokens: list[str]) -> str:
    """Source text whose tokenisation reproduces the generator's structure:
    a full stop every SENTENCE_LENGTH tokens, a blank line every
    PARAGRAPH_LENGTH tokens."""
    paragraphs = []
    for start in range(0, len(tokens), PARAGRAPH_LENGTH):
        paragraph = tokens[start : start + PARAGRAPH_LENGTH]
        paragraphs.append(
            " ".join(
                " ".join(paragraph[s : s + SENTENCE_LENGTH]) + "."
                for s in range(0, len(paragraph), SENTENCE_LENGTH)
            )
        )
    return "\n\n".join(paragraphs)


def make_corpus(seed: int, nodes: int, tokens_per_node: int = 200) -> Corpus:
    spec = SyntheticSpec(
        num_nodes=nodes,
        tokens_per_node=tokens_per_node,
        vocabulary_size=VOCABULARY,
        query_tokens=PLANTED,
        query_token_document_frequency=PLANTED_DF,
        query_token_positions_per_entry=PLANTED_POSITIONS,
        sentence_length=SENTENCE_LENGTH,
        paragraph_length=PARAGRAPH_LENGTH,
        seed=seed,
    )
    collection = generate_collection(spec, name="bench")
    texts = [render_text(node.tokens) for node in collection]
    return Corpus(collection, texts, sum(len(t.encode("utf-8")) for t in texts))


@dataclass(frozen=True)
class Query:
    """One canonical query of a pool: its class and its two spellings."""

    cls: str
    text: str
    commuted: str


def make_queries(rng: random.Random, count: int, mix=MIX) -> list[Query]:
    """``count`` queries with pairwise distinct canonical plans, split by
    ``mix`` exactly (not sampled), shuffled.

    Each query draws a distinct *unordered* token triple and is kept only if
    the unordered set of tokens its template actually uses is new for that
    template, so no two pool entries can canonicalise to the same plan.
    """
    triples = list(itertools.combinations(PLANTED, 3))
    rng.shuffle(triples)
    counts = [int(count * share) for _cls, share in mix]
    counts[0] += count - sum(counts)
    queries: list[Query] = []
    seen: set = set()
    for (cls, _share), n in zip(mix, counts):
        templates = TEMPLATES[cls]
        made = 0
        while made < n:
            tokens = list(triples.pop())
            rng.shuffle(tokens)
            a, b, c = tokens
            which = made % len(templates)
            text, commuted = templates[which]
            used = frozenset(t for t, name in zip(tokens, "abc") if "{%s}" % name in text)
            if (cls, which, used) in seen:
                continue
            seen.add((cls, which, used))
            k = 4 + (made % 9)
            queries.append(
                Query(
                    cls,
                    text.format(a=a, b=b, c=c, k=k),
                    commuted.format(a=a, b=b, c=c, k=k),
                )
            )
            made += 1
    rng.shuffle(queries)
    return queries


def zipf_draws(rng: random.Random, pool: int, count: int, exponent: float) -> list[int]:
    """``count`` pool indexes whose frequencies follow Zipf(``exponent``)
    *exactly* (largest-remainder rounding), in an order shuffled by the seed.

    Sampled draws would make the share of rarely-drawn queries -- the cache
    misses, which is where the time goes -- vary by 3 % between seeds; with
    exact counts only the order varies, and the miss count by 1 %.
    """
    weights = [1.0 / (rank**exponent) for rank in range(1, pool + 1)]
    total = sum(weights)
    quotas = [count * weight / total for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(pool), key=lambda i: quotas[i] - counts[i], reverse=True)
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    draws = [i for i, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(draws)
    return draws


def stream_hash(ops: list) -> str:
    """SHA-256 of the op stream's canonical JSON form."""
    payload = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
