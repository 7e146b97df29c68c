"""Worker-process machinery behind ``ScatterGatherExecutor(workers="process")``.

In-process scatter is GIL-bound: per-shard evaluation is pure Python, so
the shards run one after another in the calling thread.  This module
supplies the pieces that let the scatter executor fan out to *processes*
instead:

* :func:`freeze_statistics` -- a picklable snapshot of the parent's
  aggregated statistics (df, N, per-node lengths/unique counts, **all**
  TF-IDF L2 norms and the full max-occurrences table).  Norms are computed
  in the *parent* process on the aggregated statistics object: their float
  summation iterates a ``set`` of token strings, whose order depends on the
  per-process string hash seed, so recomputing them in a worker could
  differ in the last ULP.  Shipping the parent's values keeps worker scores
  bit-identical to the in-process path.
* :class:`_WorkerStatistics` -- an :class:`~repro.index.statistics.IndexStatistics`
  stand-in built from a frozen snapshot plus the worker's lazy shard
  collection; every scoring read (df, idf, norms, bounds) comes from the
  shipped tables.
* :func:`_init_worker` / :func:`run_shard_batch` -- the process-pool
  initializer and task function.  Each worker lazily opens its shard's
  packed v4 spill file via ``mmap`` (O(1) open; the pages are shared
  read-only with every sibling through the OS page cache), builds a
  shard-local :class:`~repro.engine.executor.Executor`, and evaluates the
  batch.  Queries travel as canonical query text (re-parsed with the
  default predicate registry) and answers come back as plain picklable
  :class:`~repro.engine.executor.EvaluationResult` objects holding only the
  exact best-k prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.executor import Executor, EvaluationResult
from repro.index.packed_index import PackedInvertedIndex
from repro.index.statistics import IndexStatistics
from repro.model.predicates import default_registry
from repro.scoring.base import get_model

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.corpus.collection import Collection


@dataclass(frozen=True)
class FrozenStatistics:
    """A picklable snapshot of aggregated corpus statistics."""

    node_count: int
    document_frequency: dict[str, int]
    unique_tokens: dict[int, int]
    node_lengths: dict[int, int]
    node_norms: dict[int, float]
    max_occurrences: dict[str, int]


def freeze_statistics(
    statistics: IndexStatistics, *, with_norms: bool
) -> FrozenStatistics:
    """Snapshot ``statistics`` into picklable tables (computed in the parent).

    ``with_norms`` skips the L2-norm pass for scoring models that never read
    norms -- it is the only table whose computation touches every document.
    """
    vocabulary = sorted(statistics.vocabulary())
    node_ids = statistics.collection.node_ids()
    return FrozenStatistics(
        node_count=statistics.node_count,
        document_frequency={
            token: statistics.document_frequency(token) for token in vocabulary
        },
        unique_tokens={
            node_id: statistics.unique_token_count(node_id) for node_id in node_ids
        },
        node_lengths={
            node_id: statistics.node_length(node_id) for node_id in node_ids
        },
        node_norms=(
            {node_id: statistics.node_l2_norm(node_id) for node_id in node_ids}
            if with_norms
            else {}
        ),
        max_occurrences={
            token: statistics.max_occurrences(token) for token in vocabulary
        },
    )


class _WorkerStatistics(IndexStatistics):
    """Statistics served from a frozen snapshot inside a worker process.

    Mirrors the trick of :class:`~repro.cluster.stats.AggregatedStatistics`:
    skip the scanning constructor and fill the base-class tables directly.
    ``node_l2_norm`` returns the parent-computed value verbatim (see module
    docstring); a missing id is a logic error and raises ``KeyError`` loudly
    rather than silently recomputing a possibly ULP-different norm.
    """

    def __init__(
        self, frozen: FrozenStatistics, collection: "Collection"
    ) -> None:
        self._index = None
        self._worker_collection = collection
        self._node_count = frozen.node_count
        self._document_frequency = dict(frozen.document_frequency)
        self._unique_tokens = dict(frozen.unique_tokens)
        self._node_lengths = dict(frozen.node_lengths)
        self._max_occurrences = dict(frozen.max_occurrences)
        self._node_norms = dict(frozen.node_norms)
        self._idf_cache: dict[str, float] = {}

    @property
    def collection(self) -> "Collection":
        return self._worker_collection

    def node(self, node_id: int):
        return self._worker_collection.get(node_id)

    def node_l2_norm(self, node_id: int) -> float:
        return self._node_norms[node_id]

    def _compute_max_occurrences(self, token: str) -> int:
        # The full vocabulary's maxima were shipped; anything else never
        # occurs in the corpus.
        return 0


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to serve its shards."""

    shard_paths: tuple[str, ...]
    scoring_name: str  # "none" when running unscored
    npred_orders: str
    access_mode: str
    statistics: FrozenStatistics | None


#: Per-process state set up by :func:`_init_worker` (one config, plus the
#: lazily opened shard executors this worker has served so far).
_WORKER_STATE: dict = {}


def _init_worker(config: WorkerConfig) -> None:
    _WORKER_STATE["config"] = config
    _WORKER_STATE["executors"] = {}


def _shard_executor(shard_id: int) -> Executor:
    executors: Mapping[int, Executor] = _WORKER_STATE["executors"]
    executor = executors.get(shard_id)
    if executor is None:
        config: WorkerConfig = _WORKER_STATE["config"]
        index = PackedInvertedIndex.open(config.shard_paths[shard_id])
        scoring = None
        if config.scoring_name != "none":
            statistics = _WorkerStatistics(config.statistics, index.collection)
            scoring = get_model(config.scoring_name, statistics)
        executor = Executor(
            index,
            default_registry(),
            scoring,
            npred_orders=config.npred_orders,
            access_mode=config.access_mode,
            # The coordinator plans once from global statistics and ships
            # the plan with the batch; workers never re-plan locally.
            optimizer="off",
        )
        _WORKER_STATE["executors"][shard_id] = executor
    return executor


def run_shard_batch(
    shard_id: int,
    query_texts: Sequence[str],
    engine: str,
    top_k: int | None,
    explain: bool = False,
    plans: "Sequence | None" = None,
) -> list[EvaluationResult]:
    """Evaluate a batch of canonical query texts on one shard (in a worker).

    With ``explain`` every result carries its per-operator explain payload
    (a plain dict, so it pickles back to the parent unchanged).  ``plans``
    is the coordinator's per-query physical-plan list (aligned with
    ``query_texts``; entries may be ``None``): a shipped plan is executed
    as-is, so every shard applies the same globally-planned join order,
    merge strategy and access mode.
    """
    # Imported here, not at module top: repro.core imports the cluster
    # package, so a top-level import would be circular in the parent.
    from repro.core.query import parse_query

    executor = _shard_executor(shard_id)
    queries = [
        parse_query(text, "auto", executor.registry).node for text in query_texts
    ]
    return executor.execute_many(
        queries, engine=engine, top_k=top_k, explain=explain, plans=plans
    )
