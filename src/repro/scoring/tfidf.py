"""TF-IDF scoring (paper, Section 3.1).

Formulae used (all straight from the paper):

* ``tf(n, t) = occurs(n, t) / unique_tokens(n)``
* ``idf(t)   = ln(1 + db_size / df(t))``
* ``score(n) = Σ_{t ∈ q} w(t) · tf(n, t) · idf(t) / (||n||_2 · ||q||_2)``

The per-tuple *static* score stored with each ``R_t`` tuple is
``idf(t) / (unique_tokens(n) · ||n||_2)``; at query time it is multiplied by
``idf(t) / (unique_search_tokens · ||q||_2)``, giving

    tuple.score = idf(t)² / (unique_tokens(n) · unique_search_tokens · ||n||_2 · ||q||_2)

so that summing the tuple scores of ``R_t`` for a node reproduces exactly the
node's TF-IDF contribution for ``t`` (the identity exploited in the paper's
Theorem 2, with the token weight ``w(t) = idf(t) / unique_search_tokens``).

Operator transformations (score conservation, Section 3.1):

* join:        ``t3 = t1/|R2| + t2/|R1|`` with ``|R|`` the *per-node* tuple
  counts (this is the reading under which the paper's Theorem 2 argument
  goes through);
* projection:  sum of the collapsing tuples' scores;
* selection:   unchanged;
* union:       sum (a missing tuple scores 0);
* intersection: minimum;
* difference:  keep the left score.
"""

from __future__ import annotations

from typing import Sequence

from repro.index.statistics import IndexStatistics
from repro.model.positions import Position
from repro.model.predicates import Predicate
from repro.scoring.base import ScoringModel, register_model


class TfIdfScoring(ScoringModel):
    """The TF-IDF instantiation of the scoring framework."""

    name = "tfidf"

    def __init__(self, statistics: IndexStatistics) -> None:
        super().__init__(statistics)
        self._query_norm = 1.0
        self._unique_search_tokens = 1
        #: ``(token, w(t), idf(t))`` per distinct query token, query order.
        self._terms: list[tuple[str, float, float]] = []
        #: node id -> ``(node_length, max(unique_tokens, 1), ||n||_2)``.
        #: Safe to keep for the model's lifetime: its statistics never change
        #: under it (a changed index re-binds a new model instance).
        self._node_facts: dict[int, tuple[int, int, float]] = {}

    # ----------------------------------------------------------- query setup
    def prepare(self, query_tokens: Sequence[str]) -> None:
        """Fold ``||q||_2`` and the term table; free for the tokens it holds.

        The sharded executor prepares the one shared model once per shard
        with the same sorted tokens, and the statistics cannot have changed
        in between, so a re-prepare for the current tokens keeps everything.
        """
        if tuple(query_tokens) == self._query_tokens:
            return
        super().prepare(query_tokens)
        unique = list(dict.fromkeys(query_tokens))
        self._unique_search_tokens = max(len(unique), 1)
        idf = self.statistics.idf
        self._terms = [(token, self.token_weight(token), idf(token)) for token in unique]
        weights = {token: weight for token, weight, _ in self._terms}
        self._query_norm = self.statistics.query_l2_norm(weights) or 1.0

    def token_weight(self, token: str) -> float:
        """``w(t)``: the query-token weight making Theorem 2's identity hold."""
        return self.statistics.idf(token) / max(self._unique_search_tokens, 1)

    # ----------------------------------------------------------- tuple scores
    def static_score(self, node_id: int, token: str) -> float:
        """The precomputable part ``idf(t) / (unique_tokens(n) · ||n||_2)``."""
        _, unique_tokens, norm = self._facts(node_id)
        return self.statistics.idf(token) / (unique_tokens * norm)

    def query_factor(self, token: str) -> float:
        """The query-dependent factor ``idf(t) / (unique_search_tokens · ||q||_2)``."""
        return self.statistics.idf(token) / (
            max(self._unique_search_tokens, 1) * self._query_norm
        )

    def base_score(self, node_id: int, position: Position, token: str) -> float:
        return self.static_score(node_id, token) * self.query_factor(token)

    # --------------------------------------------------------- document score
    def document_score(self, node_id: int) -> float:
        """Classic cosine TF-IDF of the node against the prepared query."""
        occurrence_count = self.statistics.node(node_id).occurrence_count
        _, unique_tokens, norm = self._facts(node_id)
        total = 0.0
        for token, weight, idf in self._terms:
            occurs = occurrence_count(token)
            if occurs == 0:
                continue
            tf = occurs / unique_tokens
            total += weight * tf * idf
        return total / (norm * self._query_norm)

    def score_upper_bound(self, node_id: int) -> float:
        """Bound ``document_score`` from per-token occurrence maxima.

        ``occurs(n, t) <= min(max_occurrences(t), len(n))``, so substituting
        that cap into the score leaves only cached statistics -- no node
        content is touched, which is what makes pruning cheaper than scoring.

        The bound deliberately replays :meth:`document_score`'s float
        operation sequence term by term (same token order, same association,
        same divisions), only with the occurrence cap in place of the true
        count.  Every IEEE operation involved is correctly rounded and hence
        weakly monotone, so ``bound >= score`` holds *in floating point*
        with no slack -- and when a node actually attains the cap for every
        token the bound equals its score bit-for-bit, which lets the
        collector prune exact ties through the node-id tie-break (score
        distributions with saturated top ranks would otherwise never prune).
        """
        terms = self._bound_state
        if terms is None:
            max_occurrences = self.statistics.max_occurrences
            terms = [
                (weight, idf, max_occurrences(token))
                for token, weight, idf in self._terms
            ]
            self._bound_state = terms
        length, unique_tokens, norm = self._facts(node_id)
        if length == 0:
            return 0.0
        total = 0.0
        for weight, idf, max_occurrences in terms:
            capped = max_occurrences if max_occurrences < length else length
            if capped == 0:
                continue
            tf = capped / unique_tokens
            total += weight * tf * idf
        return total / (norm * self._query_norm)

    # ------------------------------------------------ operator transformations
    def combine_join(
        self, left_score: float, right_score: float, left_size: int, right_size: int
    ) -> float:
        return left_score / max(right_size, 1) + right_score / max(left_size, 1)

    def combine_projection(self, scores: Sequence[float]) -> float:
        return float(sum(scores))

    def transform_selection(
        self,
        score: float,
        predicate: Predicate,
        positions: Sequence[Position],
        constants: Sequence[object],
    ) -> float:
        return score

    def combine_union(self, left_score: float, right_score: float) -> float:
        return left_score + right_score

    def combine_intersection(self, left_score: float, right_score: float) -> float:
        return min(left_score, right_score)

    def transform_difference(self, left_score: float) -> float:
        return left_score

    # ------------------------------------------------------------- internals
    def _facts(self, node_id: int) -> tuple[int, int, float]:
        facts = self._node_facts.get(node_id)
        if facts is None:
            statistics = self.statistics
            facts = (
                statistics.node_length(node_id),
                max(statistics.unique_token_count(node_id), 1),
                statistics.node_l2_norm(node_id) or 1.0,
            )
            self._node_facts[node_id] = facts
        return facts


register_model("tfidf", TfIdfScoring)
register_model("tf-idf", TfIdfScoring)
