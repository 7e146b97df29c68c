"""Score-bounded top-k collection (the ranked-search pushdown).

Rank-then-truncate scores **every** matching node, sorts the full list and
throws away all but ``k`` pairs -- on a broad query that is the dominant
cost of a ``top_k=10`` search.  :class:`TopKCollector` replaces it with a
bounded min-heap maintained *during* evaluation:

* the engines feed every matching node id to the collector exactly once (in
  any order -- the heap does not care);
* once the heap holds ``k`` candidates, a new node is first checked against
  the model's :meth:`~repro.scoring.base.ScoringModel.score_upper_bound`;
  when the bound cannot beat the heap floor the node is skipped without ever
  computing its document score (MaxScore-style pruning);
* surviving nodes get their exact :meth:`document_score` and displace the
  floor when they beat it under the global ``(-score, node_id)`` ranking
  order.

Exactness: because a skipped node's true score is ``<=`` its upper bound
``<`` the floor, and the floor never decreases, the final heap contains
precisely the ``k`` best ``(score, node_id)`` pairs -- ids, scores and order
are identical to sorting the full ranking and slicing ``[:k]``.  This is the
contract the equivalence suite (``tests/engine/test_topk_pushdown.py`` and
``tests/cluster/test_topk_equivalence.py``) pins across every engine, access
mode, scoring model and shard count.
"""

from __future__ import annotations

import heapq

from repro.scoring.base import ScoringModel


def check_top_k(top_k: "int | None") -> "int | None":
    """Validate a ``top_k`` argument (``None`` = unbounded, else ``>= 1``).

    Shared by every entry point that accepts a top-k cut
    (:class:`~repro.core.engine.FullTextEngine`,
    :class:`~repro.engine.executor.Executor`,
    :class:`~repro.cluster.scatter.ScatterGatherExecutor` and the CLI), so a
    non-positive ``k`` fails loudly and identically everywhere instead of
    silently returning an empty -- or, for negative slices, truncated --
    ranking on some paths only.
    """
    if top_k is None:
        return None
    if not isinstance(top_k, int) or isinstance(top_k, bool):
        raise ValueError(f"top_k must be a positive integer or None, got {top_k!r}")
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    return top_k


class TopKCollector:
    """Exact best-``k`` ``(node_id, score)`` pairs of a node stream.

    Heap entries are ``(score, -node_id)`` so the heap minimum is always the
    *worst* retained candidate under the ranking order "higher score first,
    ties by lower node id" -- the exact comparator of
    :meth:`~repro.engine.executor.EvaluationResult.ranked`.

    With ``scoring=None`` results rank by node id alone (all scores 0.0),
    matching the unscored full path; the heap then simply retains the ``k``
    smallest ids.
    """

    #: Stop computing upper bounds after this many full-heap candidates in a
    #: row survived the bound test without a single prune: on workloads
    #: where the bound cannot discriminate (e.g. every document near the
    #: per-token occurrence cap) the check is pure overhead, and a floor
    #: that has not pruned anything across this many candidates is very
    #: unlikely to start.  Results are unaffected -- pruning is only ever an
    #: optimisation -- the query just degrades to score-everything + heap.
    GIVE_UP_AFTER = 1024

    def __init__(self, k: int, scoring: ScoringModel | None) -> None:
        self.k = check_top_k(k)
        self.scoring = scoring
        self._heap: list[tuple[float, int]] = []
        self._bounds_enabled = scoring is not None
        self._fruitless_checks = 0
        #: Nodes whose document score was actually computed / skipped via the
        #: upper-bound test -- the observability hook the benchmark reports.
        self.scored = 0
        self.pruned = 0

    # ------------------------------------------------------------------ feed
    def add(self, node_id: int) -> None:
        """Offer one matching node (each result node exactly once)."""
        heap = self._heap
        full = len(heap) >= self.k
        if self.scoring is None:
            entry = (0.0, -node_id)
            if not full:
                heapq.heappush(heap, entry)
            elif entry > heap[0]:
                heapq.heapreplace(heap, entry)
            return
        if full and self._bounds_enabled:
            floor_score, neg_floor_id = heap[0]
            bound = self.scoring.score_upper_bound(node_id)
            if bound < floor_score or (
                bound == floor_score and node_id > -neg_floor_id
            ):
                # Even a best-case score cannot displace the current floor:
                # either it is strictly below it, or it ties and loses the
                # node-id tie-break.  Skip the document score entirely.
                self.pruned += 1
                self._fruitless_checks = 0
                return
            self._fruitless_checks += 1
            if self._fruitless_checks >= self.GIVE_UP_AFTER:
                self._bounds_enabled = False
        score = self.scoring.document_score(node_id)
        self.scored += 1
        entry = (score, -node_id)
        if not full:
            heapq.heappush(heap, entry)
        elif entry > heap[0]:
            heapq.heapreplace(heap, entry)

    @property
    def gave_up(self) -> bool:
        """Whether the bound check disabled itself as fruitless (see above)."""
        return self.scoring is not None and not self._bounds_enabled

    # --------------------------------------------------------------- results
    def ranked(self) -> list[tuple[int, float]]:
        """The retained pairs, best first -- the pruned ranking prefix."""
        ordered = sorted(self._heap, reverse=True)
        return [(-neg_id, score) for score, neg_id in ordered]

    def scores(self) -> dict[int, float]:
        """Node id -> score for the retained candidates only.

        A pruned result's ``scores`` mapping is intentionally partial; the
        ranking prefix is carried separately (``EvaluationResult._ranked``)
        and consumers must not reconstruct it from ``scores``.  Unscored
        collection returns ``{}``, matching the full path.
        """
        if self.scoring is None:
            return {}
        return {-neg_id: score for score, neg_id in self._heap}
