"""Merging per-shard evaluation results into one global answer.

Because every context node lives in exactly one shard and the paper's
semantics are per-node, the global answer to any BOOL / PPRED / NPRED / COMP
query is simply the disjoint union of the per-shard answers.  What this
module adds on top of the union is *ordering*:

* matching node ids are merged from the shards' ascending id streams,
  reproducing the single-index engines' output order;
* ranked results are merged from the shards' already-ranked streams by
  ``(-score, node_id)`` -- the tie-break every scoring backend in
  :mod:`repro.scoring` uses -- with an optional ``top_k`` cut-off that looks
  at each shard's best ``k`` only instead of materialising the full ranking.

Both merges sort the concatenated streams: timsort merges a handful of
sorted runs in C, where ``heapq.merge`` drives a Python generator per item.

Scores need no adjustment here: the shard executors score against the
globally-aggregated statistics (:mod:`repro.cluster.stats`), so per-shard
scores already *are* global scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from repro.engine.executor import EvaluationResult
from repro.engine.topk import check_top_k
from repro.index.cursor import CursorStats
from repro.languages.classify import LanguageClass


@dataclass
class MergedEvaluationResult(EvaluationResult):
    """An :class:`EvaluationResult` assembled from per-shard results.

    ``node_ids`` covers *all* matches (so ``total_matches`` stays exact);
    :meth:`ranked` returns the pre-merged ranking, truncated to the
    ``ranked_limit`` the merge was asked for (``None`` = full).  When the
    shards themselves executed with top-k pushdown, ``scores`` holds only
    the scores the shards actually computed -- the ranking prefix is still
    exact, because every globally-top-k node is in its own shard's top-k.
    """

    shard_count: int = 0
    from_cache: bool = False
    _ranked: list[tuple[int, float]] = field(default_factory=list)

    def ranked(self) -> list[tuple[int, float]]:
        return self._ranked


def merge_cursor_stats(per_shard: "list[CursorStats | None]") -> CursorStats | None:
    """Sum shard cursor counters; ``None`` when no shard reported any."""
    reported = [stats for stats in per_shard if stats is not None]
    if not reported:
        return None
    total = CursorStats()
    for stats in reported:
        total.merge(stats)
    return total


def merge_ranked(
    ranked_streams: "list[list[tuple[int, float]]]", top_k: int | None = None
) -> list[tuple[int, float]]:
    """Merge per-shard rankings into one, ordered by ``(-score, node_id)``.

    Each input stream must already be sorted that way (the contract of
    :meth:`EvaluationResult.ranked`).  With ``top_k`` only each stream's
    first ``k`` pairs can reach the global top ``k``, so the cost does not
    depend on the streams' length.

    ``top_k`` must be ``None`` or ``>= 1`` -- the same validation every
    other entry point applies (a non-positive ``k`` used to return an empty
    ranking here while the single-index slice treated it differently).
    """
    check_top_k(top_k)
    # A ``[:None]`` slice is the whole stream.
    merged = list(chain.from_iterable(stream[:top_k] for stream in ranked_streams))
    # (-score, node_id) as two stable passes with C-level keys: a reverse
    # sort keeps equal scores in the ascending id order of the first pass.
    merged.sort(key=itemgetter(0))
    merged.sort(key=itemgetter(1), reverse=True)
    return merged[:top_k]


def merge_shard_results(
    per_shard: "list[EvaluationResult]",
    elapsed_seconds: float,
    top_k: int | None = None,
) -> MergedEvaluationResult:
    """Combine per-shard :class:`EvaluationResult` objects into one.

    ``per_shard`` must be in shard order (the scatter layer guarantees it),
    which keeps the merge deterministic.  ``elapsed_seconds`` is the
    scatter-gather wall clock as the caller measured it.
    """
    if not per_shard:
        raise ValueError("cannot merge zero shard results")
    node_ids = sorted(chain.from_iterable(result.node_ids for result in per_shard))
    scores: dict[int, float] = {}
    for result in per_shard:
        scores.update(result.scores)
    ranked = merge_ranked([result.ranked() for result in per_shard], top_k)
    language_class: LanguageClass = per_shard[0].language_class
    return MergedEvaluationResult(
        node_ids=node_ids,
        language_class=language_class,
        engine=per_shard[0].engine,
        elapsed_seconds=elapsed_seconds,
        scores=scores,
        cursor_stats=merge_cursor_stats([r.cursor_stats for r in per_shard]),
        ranked_limit=top_k,
        # Every shard executed the same coordinator-shipped plan, so shard
        # 0's provenance payload speaks for the whole scatter.
        plan=per_shard[0].plan,
        shard_count=len(per_shard),
        _ranked=ranked,
    )
