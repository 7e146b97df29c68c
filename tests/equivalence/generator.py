"""Seeded corpora and queries over the whole surface grammar.

One ``random.Random(seed)`` drives each draw, so a seed names the same
corpus and the same query list on every run and under every
``PYTHONHASHSEED``.  Other suites import this module (``from
equivalence.generator import ...``) instead of keeping a private corpus or
query list.

The grammar covered by :func:`draw_query`:

* BOOL: tokens, ``ANY``, ``NOT``, ``AND``, ``OR`` and ``AND NOT``, nested;
* DIST: ``dist(t1, t2, k)`` with either side possibly ``ANY``, alone or
  combined with BOOL by ``OR`` / ``AND`` / ``AND NOT``;
* blocks: ``SOME`` over one to three position variables, positive and
  negative predicates over pairs of them, a variable bound twice (the same
  token or another one), a nested ``SOME`` that shadows a name in scope, a
  sibling ``SOME`` that reuses a name, a ``SOME q`` that only a predicate
  reads beside a sibling ``SOME q`` that binds a token, and closed
  ``AND NOT`` / ``OR`` conjuncts;
* COMP: ``NOT`` under a quantifier, ``EVERY``, a negated predicate and an
  open ``OR`` of ``HAS`` atoms.

Corpora are texts, so every index shape (including the live tier, which
ingests text) holds exactly the collection the calculus reads.  About one
text in seven repeats an earlier one: duplicate nodes tie on every score,
which is what makes a top-k tie-break observable.  About one in fourteen is
empty: a node with no positions satisfies every ``EVERY`` and every
``NOT``, and scores with zero length.
"""

from __future__ import annotations

import random

from repro.corpus import Collection
from repro.languages import ast
from repro.languages.parser import LanguageLevel, QueryParser

#: Query tokens planted in every corpus, and the filler around them.
TOKENS = ("alpha", "beta", "gamma", "delta")
FILLER = ("w0", "w1", "w2", "w3", "w4", "w5")
VARIABLES = ("p1", "p2", "p3")

POSITIVE_PREDICATES = (
    ("distance", (2,)),
    ("ordered", ()),
    ("samepara", ()),
    ("samesentence", ()),
    ("samepos", ()),
)
NEGATIVE_PREDICATES = (
    ("not_distance", (1,)),
    ("not_ordered", ()),
    ("not_samepara", ()),
    ("not_samesentence", ()),
    ("diffpos", ()),
)

#: Fixed queries every corpus is also checked on: the workload generator's
#: series, ``dist`` and three-variable blocks, COMP-only shapes, and the
#: repeated/shadowed-variable witnesses (a predicate-only variable beside a
#: sibling that binds its name, in both conjunct orders).
FIXED_QUERIES = (
    "'alpha' AND 'beta' AND 'gamma'",
    "'alpha' OR 'beta'",
    "'alpha' AND NOT 'gamma'",
    "NOT 'alpha'",
    "ANY AND NOT ('beta' OR 'delta')",
    "'delta' AND ('alpha' OR 'gamma')",
    "dist('alpha', 'beta', 10)",
    "dist('alpha', 'beta', 5) OR 'gamma'",
    "dist('alpha', 'beta', 5) AND NOT 'gamma'",
    "dist('alpha', 'alpha', 0)",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'alpha' AND p2 HAS 'beta' AND p3 HAS 'gamma'"
    " AND ordered(p1, p2) AND distance(p2, p3, 20))",
    "SOME p1 SOME p2 SOME p3 (p1 HAS 'alpha' AND p2 HAS 'beta' AND p3 HAS 'gamma'"
    " AND not_ordered(p1, p2) AND not_samesentence(p2, p3))",
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'alpha' AND diffpos(p1, p2))",
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND NOT distance(p1, p2, 2))",
    "SOME p (NOT p HAS 'alpha')",
    "EVERY p (p HAS 'alpha' OR p HAS 'beta' OR p HAS 'w0')",
    "SOME p (p HAS 'alpha' AND p HAS 'beta')",
    "SOME p1 SOME p2 (p1 HAS 'alpha' AND p2 HAS 'beta' AND p1 HAS 'gamma'"
    " AND ordered(p1, p2))",
    "SOME p (p HAS 'alpha') AND SOME p SOME p2 (p HAS 'beta' AND p2 HAS 'gamma'"
    " AND distance(p, p2, 1))",
    "SOME q (q HAS 'alpha' AND SOME p (distance(p, q, 1))) AND SOME p (p HAS 'beta')",
    "SOME p (p HAS 'beta') AND SOME q (q HAS 'alpha' AND SOME p (distance(p, q, 1)))",
)

_PARSER = QueryParser(LanguageLevel.COMP)


def make_texts(seed: int, nodes: int) -> list[str]:
    """``nodes`` texts of one to three paragraphs of short sentences, some
    repeated and some empty."""
    rng = random.Random(seed)
    texts: list[str] = []
    for _ in range(nodes):
        draw = rng.random()
        if texts and draw < 0.15:
            texts.append(rng.choice(texts))
        elif draw < 0.22:
            texts.append("")
        else:
            texts.append(_text(rng))
    return texts


def make_corpus(seed: int, nodes: int) -> Collection:
    return Collection.from_texts(make_texts(seed, nodes), name=f"harness-{seed}")


def fixed_queries() -> list[ast.QueryNode]:
    return [_PARSER.parse_closed(text) for text in FIXED_QUERIES]


def make_queries(
    seed: int, count: int, tokens: tuple[str, ...] = TOKENS
) -> list[ast.QueryNode]:
    """``count`` closed queries drawn by :func:`draw_query`."""
    rng = random.Random(seed)
    return [draw_query(rng, tokens) for _ in range(count)]


def draw_query(rng: random.Random, tokens: tuple[str, ...] = TOKENS) -> ast.QueryNode:
    kind = rng.choices(
        ("bool", "dist", "block", "comp", "combined"), weights=(3, 2, 5, 1, 2)
    )[0]
    if kind == "bool":
        return _bool(rng, tokens, 2)
    if kind == "dist":
        return _dist(rng, tokens)
    if kind == "block":
        return _block(rng, tokens)
    if kind == "comp":
        return _comp(rng, tokens)
    left = _block(rng, tokens)
    right = rng.choice((_block, _dist))(rng, tokens)
    how = rng.randrange(3)
    if how == 0:
        return ast.OrQuery(left, right)
    if how == 1:
        return ast.AndQuery(left, ast.NotQuery(right))
    return ast.AndQuery(_bool(rng, tokens, 1), left)


def commute(node: ast.QueryNode) -> ast.QueryNode:
    """The same query with every ``AND`` / ``OR`` spelled operands-swapped."""
    if isinstance(node, ast.AndQuery):
        return ast.AndQuery(commute(node.right), commute(node.left))
    if isinstance(node, ast.OrQuery):
        return ast.OrQuery(commute(node.right), commute(node.left))
    if isinstance(node, ast.NotQuery):
        return ast.NotQuery(commute(node.operand))
    if isinstance(node, ast.SomeQuery):
        return ast.SomeQuery(node.var, commute(node.operand))
    if isinstance(node, ast.EveryQuery):
        return ast.EveryQuery(node.var, commute(node.operand))
    return node


# ------------------------------------------------------------------ drawing
def _text(rng: random.Random) -> str:
    paragraphs = []
    for _ in range(rng.randint(1, 3)):
        sentences = []
        for _ in range(rng.randint(1, 3)):
            words = [
                rng.choice(TOKENS) if rng.random() < 0.4 else rng.choice(FILLER)
                for _ in range(rng.randint(1, 6))
            ]
            sentences.append(" ".join(words) + ".")
        paragraphs.append(" ".join(sentences))
    return "\n\n".join(paragraphs)


def _conjunction(parts: list[ast.QueryNode]) -> ast.QueryNode:
    node = parts[0]
    for part in parts[1:]:
        node = ast.AndQuery(node, part)
    return node


def _bool(rng: random.Random, tokens, depth: int) -> ast.QueryNode:
    choice = rng.randrange(6) if depth else 0
    if choice == 0:
        return ast.TokenQuery(rng.choice(tokens))
    if choice == 1:
        return ast.AnyQuery()
    if choice == 2:
        return ast.NotQuery(_bool(rng, tokens, depth - 1))
    left = _bool(rng, tokens, depth - 1)
    right = _bool(rng, tokens, depth - 1)
    if choice == 3:
        return ast.AndQuery(left, right)
    if choice == 4:
        return ast.OrQuery(left, right)
    return ast.AndQuery(left, ast.NotQuery(right))


def _dist(rng: random.Random, tokens) -> ast.QueryNode:
    def side():
        return None if rng.random() < 0.1 else rng.choice(tokens)

    node: ast.QueryNode = ast.DistQuery(side(), side(), rng.randint(0, 4))
    how = rng.randrange(4)
    if how == 1:
        return ast.OrQuery(node, ast.TokenQuery(rng.choice(tokens)))
    if how == 2:
        return ast.AndQuery(node, ast.TokenQuery(rng.choice(tokens)))
    if how == 3:
        return ast.AndQuery(node, ast.NotQuery(ast.TokenQuery(rng.choice(tokens))))
    return node


def _predicate(rng: random.Random, names, kinds=None) -> ast.PredQuery:
    name, constants = rng.choice(kinds or POSITIVE_PREDICATES + NEGATIVE_PREDICATES)
    return ast.PredQuery(name, tuple(rng.sample(names, 2)), constants)


def _block(rng: random.Random, tokens, negated_predicate: bool = False) -> ast.QueryNode:
    """``SOME``-quantified conjunction of ``HAS`` atoms and predicates, with
    the variable shapes the plan builder must rename: a name bound twice, a
    nested ``SOME`` shadowing a name in scope, a sibling ``SOME`` that
    reuses a name, and a ``SOME q`` that only a predicate reads beside a
    sibling ``SOME q`` that binds it."""
    names = list(VARIABLES[: rng.randint(1, 3)])
    atoms: list[ast.QueryNode] = []
    for name in names:
        atoms.append(ast.VarHasToken(name, rng.choice(tokens)))
        if rng.random() < 0.2:
            atoms.append(ast.VarHasToken(name, rng.choice(tokens)))
    if len(names) > 1:
        for _ in range(rng.randint(1, 3)):
            atoms.append(_predicate(rng, names))
        if negated_predicate:
            atoms.append(ast.NotQuery(_predicate(rng, names)))
    if rng.random() < 0.25:
        shadowed = rng.choice(names)
        inner: list[ast.QueryNode] = [ast.VarHasToken(shadowed, rng.choice(tokens))]
        others = [name for name in names if name != shadowed]
        if others:
            inner.append(_predicate(rng, [shadowed, rng.choice(others)]))
        atoms.append(ast.SomeQuery(shadowed, _conjunction(inner)))
    loose = rng.random() < 0.15
    if loose:
        atoms.append(ast.SomeQuery("q", _predicate(rng, ["q", rng.choice(names)])))
    extra = rng.random()
    if extra < 0.1:
        atoms.append(ast.NotQuery(ast.TokenQuery(rng.choice(tokens))))
    elif extra < 0.2:
        atoms.append(
            ast.OrQuery(
                ast.TokenQuery(rng.choice(tokens)), ast.TokenQuery(rng.choice(tokens))
            )
        )
    rng.shuffle(atoms)
    body = _conjunction(atoms)
    for name in reversed(names):
        body = ast.SomeQuery(name, body)
    if rng.random() < 0.15:
        reused = names[0]
        sibling = ast.SomeQuery(reused, ast.VarHasToken(reused, rng.choice(tokens)))
        body = ast.AndQuery(sibling, body)
    if loose:
        sibling = ast.SomeQuery("q", ast.VarHasToken("q", rng.choice(tokens)))
        body = ast.AndQuery(*((sibling, body) if rng.random() < 0.5 else (body, sibling)))
    return body


def _comp(rng: random.Random, tokens) -> ast.QueryNode:
    choice = rng.randrange(4)
    first, second = rng.choice(tokens), rng.choice(tokens)
    if choice == 0:
        return ast.SomeQuery("p", ast.NotQuery(ast.VarHasToken("p", first)))
    if choice == 1:
        return ast.EveryQuery(
            "p",
            ast.OrQuery(
                ast.OrQuery(ast.VarHasToken("p", first), ast.VarHasToken("p", second)),
                ast.VarHasToken("p", rng.choice(FILLER)),
            ),
        )
    if choice == 2:
        return ast.SomeQuery(
            "p", ast.OrQuery(ast.VarHasToken("p", first), ast.VarHasToken("p", second))
        )
    return _block(rng, tokens, negated_predicate=True)
