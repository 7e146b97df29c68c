"""Corpus and index statistics.

Two kinds of statistics are collected here:

* **Complexity parameters** (paper, Section 5.1.2): ``cnodes``,
  ``pos_per_cnode``, ``entries_per_token`` and ``pos_per_entry``.  These are
  the knobs in which every complexity bound of Figure 3 is expressed, and the
  quantities the experiment harness sweeps.
* **Scoring statistics** (paper, Section 3.1): document frequency ``df(t)``,
  inverse document frequency ``idf(t) = ln(1 + db_size / df(t))``, per-node
  unique-token counts, and the L2 normalisation factors of the TF-IDF model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.corpus.collection import Collection
    from repro.corpus.document import ContextNode
    from repro.index.inverted_index import InvertedIndex


@dataclass(frozen=True)
class ComplexityParameters:
    """The four data-size parameters of the paper's complexity model."""

    cnodes: int
    pos_per_cnode: int
    entries_per_token: int
    pos_per_entry: int

    def as_dict(self) -> dict[str, int]:
        return {
            "cnodes": self.cnodes,
            "pos_per_cnode": self.pos_per_cnode,
            "entries_per_token": self.entries_per_token,
            "pos_per_entry": self.pos_per_entry,
        }


class IndexStatistics:
    """Statistics computed once from an :class:`InvertedIndex`.

    The scoring models take an ``IndexStatistics`` instead of recomputing
    counts from the raw collection so that the "precomputed score" story of
    the paper (static TF-IDF factors stored in the index) is reproduced.
    """

    def __init__(self, index: "InvertedIndex") -> None:
        self._index = index
        self._node_count = index.node_count()
        self._document_frequency: dict[str, int] = {
            token: index.posting_list(token).document_frequency()
            for token in index.tokens()
        }
        self._unique_tokens: dict[int, int] = {}
        self._node_lengths: dict[int, int] = {}
        self._max_occurrences: dict[str, int] = {}
        self._idf_cache: dict[str, float] = {}
        for node in index.collection:
            self._unique_tokens[node.node_id] = node.unique_token_count()
            self._node_lengths[node.node_id] = len(node)

    # ------------------------------------------------------------ basic data
    @property
    def node_count(self) -> int:
        """``db_size``: the number of context nodes."""
        return self._node_count

    @property
    def collection(self) -> "Collection":
        """The corpus these statistics describe.

        This is the public route to node content for scoring models -- the
        sharded (:class:`~repro.cluster.stats.AggregatedStatistics`) and live
        (:class:`~repro.segments.stats.LiveStatistics`) statistics have no
        single backing :class:`~repro.index.inverted_index.InvertedIndex`,
        so reaching through ``statistics._index`` is not portable.
        """
        return self._index.collection

    def node(self, node_id: int) -> "ContextNode":
        """The corpus node for ``node_id`` (raises ``CorpusError`` if unknown)."""
        return self._index.collection.get(node_id)

    def document_frequency(self, token: str) -> int:
        """``df(t)``: number of nodes containing ``token`` (0 if absent)."""
        return self._document_frequency.get(token, 0)

    def unique_token_count(self, node_id: int) -> int:
        """``unique_tokens(n)`` for a node id."""
        return self._unique_tokens.get(node_id, 0)

    def node_length(self, node_id: int) -> int:
        """Number of token occurrences in the node."""
        return self._node_lengths.get(node_id, 0)

    def vocabulary(self) -> set[str]:
        """Every indexed token."""
        return set(self._document_frequency)

    def max_occurrences(self, token: str) -> int:
        """Largest ``occurs(n, t)`` over all nodes (0 for unknown tokens).

        This is the per-token quantity behind the scoring models'
        :meth:`~repro.scoring.base.ScoringModel.score_upper_bound`: no node
        can contribute more than ``max_occurrences(t)`` occurrences of ``t``
        to its score.  Computed lazily from the token's posting list (one
        pass over the entry bounds) and cached -- only queries that use
        top-k pruning ever pay for it.
        """
        cached = self._max_occurrences.get(token)
        if cached is None:
            cached = self._compute_max_occurrences(token)
            self._max_occurrences[token] = cached
        return cached

    def _compute_max_occurrences(self, token: str) -> int:
        return self._index.posting_list(token).max_positions_per_entry()

    # --------------------------------------------------------------- scoring
    def idf(self, token: str) -> float:
        """``idf(t) = ln(1 + db_size / df(t))`` (paper, Section 3.1).

        Tokens that never occur get an IDF of ``ln(1 + db_size)`` -- i.e. the
        value obtained with ``df = 1`` would be larger, so instead we treat a
        missing token as maximally rare but finite by using ``df = 1``.

        Memoised per token: scoring calls this once per query token per
        scored node, and recomputing the logarithm dominated the ranked hot
        path before the cache.
        """
        cached = self._idf_cache.get(token)
        if cached is not None:
            return cached
        df = self.document_frequency(token)
        if df == 0:
            df = 1
        value = math.log(1.0 + self._node_count / df)
        self._idf_cache[token] = value
        return value

    def node_l2_norm(self, node_id: int) -> float:
        """The L2 norm ``||n||_2`` of the node's TF-IDF vector.

        Summed in sorted token order (the node's cached ``token_counts()``
        table): a set's iteration order follows the per-process string hash
        seed, and float addition is not associative -- an unsorted sum drifts
        by an ulp or two between processes, which breaks bit-identical score
        comparisons between a server and a replaying client.
        """
        node = self._index.collection.get(node_id)
        unique = self.unique_token_count(node_id)
        if unique == 0:
            return 1.0
        total = 0.0
        for token, occurs in zip(*node.token_counts()):
            tf = occurs / unique
            total += (tf * self.idf(token)) ** 2
        return math.sqrt(total) if total > 0 else 1.0

    def query_l2_norm(self, token_weights: Mapping[str, float]) -> float:
        """The L2 norm ``||q||_2`` of a weighted bag of search tokens."""
        total = sum(
            (weight * self.idf(token)) ** 2 for token, weight in token_weights.items()
        )
        return math.sqrt(total) if total > 0 else 1.0

    # ----------------------------------------------------------- complexity
    def complexity_parameters(self) -> ComplexityParameters:
        """The paper's data-size parameters for this index."""
        entries = [pl.document_frequency() for pl in self._index.posting_lists()]
        pos_per_entry = [
            pl.max_positions_per_entry() for pl in self._index.posting_lists()
        ]
        return ComplexityParameters(
            cnodes=self._node_count,
            pos_per_cnode=max(self._node_lengths.values(), default=0),
            entries_per_token=max(entries, default=0),
            pos_per_entry=max(pos_per_entry, default=0),
        )
