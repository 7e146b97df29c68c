"""The high-level full-text search engine facade.

:class:`FullTextEngine` is the entry point a downstream user interacts with:
index a collection once, then run queries written in any of the paper's
languages (BOOL, DIST, COMP).  Classification, engine selection, evaluation
and (optional) scoring are delegated to the lower layers; results come back
as ranked :class:`~repro.core.results.SearchResults`.

Example
-------
::

    from repro import Collection, FullTextEngine

    collection = Collection.from_texts([
        "usability testing of efficient software",
        "software measures how well users achieve task completion",
    ])
    engine = FullTextEngine.from_collection(collection, scoring="tfidf")

    engine.search("'software' AND 'usability'")
    engine.search("dist('task', 'completion', 0)", language="dist")
    engine.search(
        "SOME p1 SOME p2 (p1 HAS 'efficient' AND p2 HAS 'task' "
        "AND ordered(p1, p2) AND distance(p1, p2, 10))"
    )
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.cache import DEFAULT_CACHE_SIZE, QueryCache
from repro.cluster.live import LiveShardedIndex
from repro.cluster.merge import MergedEvaluationResult
from repro.cluster.scatter import ScatterGatherExecutor
from repro.cluster.sharded_index import ShardedIndex
from repro.corpus.collection import Collection
from repro.exceptions import ReproError, ScoringError
from repro.index.inverted_index import InvertedIndex
from repro.segments.live_index import LiveIndex
from repro.languages import ast
from repro.model.predicates import Predicate, PredicateRegistry, default_registry
from repro.scoring.base import ScoringModel, get_model
from repro.engine.executor import AUTO, EvaluationResult, Executor
from repro.engine.topk import check_top_k
from repro.planner import DEFAULT_OPTIMIZER
from repro.core.query import Query, parse_query
from repro.core.results import SearchResult, SearchResults

#: Sentinel distinguishing "caller did not mention cache_size" from an
#: explicit value: an explicit request at shards=1 builds a one-shard
#: cluster so the cache actually applies.
_CACHE_UNSET = object()


class FullTextEngine:
    """Index + parser + evaluator + scorer behind one convenient API.

    The engine runs in one of two modes, chosen by the index it is given:

    * a plain :class:`InvertedIndex` -- the single-index path of the paper;
    * a :class:`~repro.cluster.sharded_index.ShardedIndex` -- the
      scatter-gather executor evaluates every query on every shard and the
      merged results (identical node ids and scores, see
      :mod:`repro.cluster`) come back with per-query cache/shard metadata.

    ``cache_size`` belongs to the cluster path and has no effect when the
    index is a plain :class:`InvertedIndex`; to get a cached engine without
    real sharding, use :meth:`from_collection` with an explicit
    ``cache_size`` (it builds a one-shard cluster) or pass a one-shard
    :class:`ShardedIndex` here.  ``max_workers`` is accepted and ignored:
    shards always run in the calling thread, and existing callers still
    pass it.
    """

    def __init__(
        self,
        index: "InvertedIndex | ShardedIndex",
        registry: PredicateRegistry | None = None,
        scoring: "str | ScoringModel | None" = None,
        npred_orders: str = "minimal",
        access_mode: str = "paper",
        max_workers: int | None = None,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.index = index
        self.registry = registry or default_registry()
        self.access_mode = access_mode
        self.optimizer = optimizer
        self._executor: Executor | None = None
        self._cluster: ScatterGatherExecutor | None = None
        self._scoring_spec = scoring
        self._scoring_generation: int | None = None
        if isinstance(index, ShardedIndex):
            self._cluster = ScatterGatherExecutor(
                index,
                self.registry,
                scoring,
                npred_orders=npred_orders,
                access_mode=access_mode,
                cache_size=cache_size,
                optimizer=optimizer,
            )
            self._scoring = None
        else:
            self._scoring = self._resolve_scoring(scoring)
            self._executor = Executor(
                index,
                self.registry,
                self.scoring,
                npred_orders=npred_orders,
                access_mode=access_mode,
                optimizer=optimizer,
            )
            if isinstance(index, LiveIndex):
                self._scoring_generation = index.generation

    # -------------------------------------------------------------- builders
    @classmethod
    def from_collection(
        cls,
        collection: Collection,
        registry: PredicateRegistry | None = None,
        scoring: "str | ScoringModel | None" = None,
        access_mode: str = "paper",
        shards: int = 1,
        partitioner: str = "hash",
        cache_size=_CACHE_UNSET,
        live: bool = False,
        live_dir=None,
        flush_threshold: int | None = None,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> "FullTextEngine":
        """Build an engine by indexing ``collection``.

        With ``shards > 1`` the collection is partitioned (see
        ``partitioner``: ``"hash"``, ``"round-robin"`` or
        ``"metadata:<key>"``) and every search runs scatter-gather across the
        shards with an LRU result cache of ``cache_size`` entries
        (``cache_size=None`` disables caching); the shards are evaluated one
        after another in the calling thread.

        With ``live=True`` the index is built on the log-structured segment
        subsystem (:mod:`repro.segments`) and the engine accepts
        :meth:`add_document` / :meth:`update_document` /
        :meth:`delete_document` while serving queries.  ``live_dir`` adds
        WAL + segment-file persistence; ``flush_threshold`` bounds the
        memtable (documents per segment seal).

        Caching lives in the cluster layer, so *explicitly* requesting a
        cache at ``shards=1`` builds a one-shard cluster (the same code
        path as N shards, identical results) instead of silently dropping the
        request -- the shape a cached long-running server such as
        ``repro serve`` uses.  Left unspecified, ``shards=1`` stays the
        plain single-index path.

        ``optimizer`` selects the planning layer's mode: ``"off"`` (the
        default) builds plan artifacts but defers every choice to the
        builtin heuristics, ``"on"`` picks join order, merge strategy and
        the paper→fast upgrade from document frequencies and memoises the
        plan per canonical query.  Results are pinned bit-identical across
        both modes.
        """
        requested_cache = (
            DEFAULT_CACHE_SIZE if cache_size is _CACHE_UNSET else cache_size
        )
        if not requested_cache:  # 0 disables caching, like the CLI flag
            requested_cache = None
        wants_cluster = shards > 1 or (
            cache_size is not _CACHE_UNSET and requested_cache is not None
        )
        live_options = {}
        if flush_threshold is not None:
            live_options["flush_threshold"] = flush_threshold
        if wants_cluster:
            if live:
                index: "InvertedIndex | ShardedIndex" = LiveShardedIndex(
                    collection, shards, partitioner,
                    directory=live_dir, **live_options,
                )
            else:
                index = ShardedIndex(collection, shards, partitioner)
        elif live:
            index = LiveIndex(collection, directory=live_dir, **live_options)
        else:
            index = InvertedIndex(collection)
        return cls(
            index,
            registry,
            scoring,
            access_mode=access_mode,
            cache_size=requested_cache,
            optimizer=optimizer,
        )

    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        scoring: "str | ScoringModel | None" = None,
        access_mode: str = "paper",
        shards: int = 1,
    ) -> "FullTextEngine":
        """Build an engine straight from raw text strings (one node each)."""
        return cls.from_collection(
            Collection.from_texts(texts),
            scoring=scoring,
            access_mode=access_mode,
            shards=shards,
        )

    # ------------------------------------------------------------------ API
    @property
    def scoring(self) -> ScoringModel | None:
        """The active scoring model.

        On the sharded path this delegates to the cluster (one model for
        all shards), which re-binds to fresh aggregated statistics after
        incremental updates -- a snapshot taken at construction would go stale.
        """
        if self._cluster is not None:
            return self._cluster.scoring
        return self._scoring

    @property
    def collection(self) -> Collection:
        """The indexed collection (the search context)."""
        return self.index.collection

    @property
    def is_sharded(self) -> bool:
        """Whether searches run scatter-gather over a sharded index."""
        return self._cluster is not None

    @property
    def is_live(self) -> bool:
        """Whether the index accepts updates and deletes while serving."""
        return isinstance(self.index, (LiveIndex, LiveShardedIndex))

    @property
    def num_shards(self) -> int:
        """Number of index shards (1 for the single-index path)."""
        return self._cluster.num_shards if self._cluster is not None else 1

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard size figures (a single pseudo-shard when unsharded)."""
        if isinstance(self.index, ShardedIndex):
            return self.index.shard_stats()
        from repro.cluster.sharded_index import Shard

        return [Shard(0, self.index).describe()]

    def cache_stats(self) -> dict[str, float]:
        """Result-cache statistics (all zeros on the single-index path)."""
        if self._cluster is not None:
            return self._cluster.cache_stats()
        return QueryCache.empty_stats()

    def optimizer_stats(self) -> dict:
        """The planning layer's mode plus the planner summary.

        ``"mode"`` plus plans built, memo hits and memo size (the counters
        stay zero with the optimizer ``"off"``: static plans are not
        memoised work).
        """
        if self._cluster is not None:
            return self._cluster.optimizer_stats()
        return {"mode": self.optimizer, **self._executor.planner.summary()}

    def stats(self) -> dict:
        """Consolidated engine-side statistics for serving surfaces.

        One dictionary with everything the CLI spreads over ``shard-stats``,
        ``segment-stats`` and the serve REPL's ``:stats``: per-shard sizes,
        cache hit rates and live segment/WAL state.  ``repro serve-http``
        returns this verbatim under the ``"engine"`` key of ``/stats``.
        """
        stats = {
            "collection": self.collection.name,
            "nodes": self.index.node_count(),
            "shards": self.num_shards,
            "live": self.is_live,
            "access_mode": self.access_mode,
            "cache": self.cache_stats(),
            "optimizer": self.optimizer_stats(),
            "shard_stats": self.shard_stats(),
            "memory": self.index.memory_footprint(),
        }
        if self.is_live:
            stats["segments"] = self.segment_stats()
            if hasattr(self.index, "wal_stats"):
                stats["wal"] = self.index.wal_stats()
        return stats

    def close(self) -> None:
        """Release cluster resources and close live-index resources.

        On a live index this stops background compaction and makes the WAL
        durable; on the cluster path it additionally detaches the cluster's
        invalidation listeners.  Idempotent.
        """
        if self._cluster is not None:
            self._cluster.close()
        if isinstance(self.index, (LiveIndex, LiveShardedIndex)):
            self.index.close()

    # -------------------------------------------------------------- mutation
    def add_document(self, text: str, metadata=None) -> int:
        """Tokenize and index a new document; returns its node id.

        Works on every index flavour: plain indexes append (the seed's
        append-only contract), live indexes route through the WAL + memtable
        write path.
        """
        return self.index.add_text(text, metadata=metadata)

    def update_document(self, node_id: int, text: str, metadata=None) -> None:
        """Replace a document's content in place (live indexes only)."""
        index = self._require_live("update")
        index.update_text(node_id, text, metadata=metadata)

    def delete_document(self, node_id: int) -> bool:
        """Delete a document (live indexes only); False if the id is unknown."""
        index = self._require_live("delete")
        return index.delete_node(node_id)

    def flush(self) -> None:
        """Seal the live memtable(s) into immutable segments (no-op unless live)."""
        if self.is_live:
            self.index.flush()

    def compact(self) -> dict[str, int]:
        """Fully compact the live index; returns the merge report."""
        if not self.is_live:
            return {"merges": 0, "segments_merged": 0}
        return self.index.compact()

    def segment_stats(self) -> list[dict[str, int]]:
        """Per-segment size rows of a live index ([] for static indexes)."""
        if not self.is_live:
            return []
        return self.index.segment_stats()

    def _require_live(self, operation: str):
        if not self.is_live:
            raise ReproError(
                f"cannot {operation} documents on a static index; build the "
                f"engine with live=True (FullTextEngine.from_collection) to "
                f"get the mutable write path"
            )
        return self.index

    def _refresh_scoring(self) -> None:
        """Re-bind the scoring model after live mutations (single path).

        Statistics (df / N / norms) change with every mutation; a model
        bound at construction would keep scoring against the old corpus.
        The cluster path refreshes itself through the sharded index's
        invalidation listeners; the single live path has no listeners, so
        the engine compares the index generation lazily before each search.
        """
        if (
            self._executor is None
            or self._scoring_spec is None
            or not isinstance(self.index, LiveIndex)
        ):
            return
        generation = self.index.generation
        if generation != self._scoring_generation:
            self._scoring = self._resolve_scoring(self._scoring_spec)
            self._executor.scoring = self._scoring
            self._scoring_generation = generation

    def register_predicate(self, predicate: Predicate) -> None:
        """Add a user-defined position predicate usable in COMP queries."""
        self.registry.register(predicate)

    def parse(self, text: str, language: str = "auto") -> Query:
        """Parse and classify a query without evaluating it."""
        return parse_query(text, language, self.registry)

    def search(
        self,
        query: "str | Query | ast.QueryNode",
        language: str = "auto",
        engine: str = AUTO,
        top_k: int | None = None,
        explain: bool = False,
        trace=None,
    ) -> SearchResults:
        """Run a search and return ranked results.

        Parameters
        ----------
        query:
            Query text, a pre-parsed :class:`Query`, or a surface AST node.
        language:
            ``"bool"``, ``"dist"``, ``"comp"`` or ``"auto"`` (only used when
            ``query`` is a string).
        engine:
            Force a specific evaluation algorithm (``"bool"``, ``"ppred"``,
            ``"npred"``, ``"comp"``); ``"auto"`` picks the cheapest engine for
            the query's class.
        top_k:
            Return only the best ``top_k`` results (all matches by default;
            must be ``>= 1`` when given).  The cut is pushed down into
            execution -- scoring models bound candidate scores so nodes that
            cannot reach the top ``k`` are never fully scored -- and the
            returned prefix is exactly the first ``top_k`` entries of the
            full ranking.
        explain:
            Attach an EXPLAIN ANALYZE payload (per-cursor operation counts,
            top-k collector statistics, cache provenance) to the result's
            ``metadata["explain"]``.  Purely observational: results are
            bit-identical to ``explain=False``.  On the cluster path the
            query cache is bypassed so every shard reports fresh counts.
        trace:
            Optional :class:`~repro.telemetry.trace.Span` receiving nested
            execution spans (``None``, the default, costs nothing).
        """
        check_top_k(top_k)
        parsed = self._as_query(query, language)
        if self._cluster is not None:
            outcome: EvaluationResult = self._cluster.execute(
                parsed.node, engine=engine, top_k=top_k,
                explain=explain, trace=trace,
            )
        else:
            self._refresh_scoring()
            outcome = self._executor.execute(
                parsed.node, engine=engine, top_k=top_k,
                explain=explain, trace=trace,
            )
        return self._build_results(parsed, outcome, top_k)

    def search_many(
        self,
        queries: Sequence["str | Query | ast.QueryNode"],
        language: str = "auto",
        engine: str = AUTO,
        top_k: int | None = None,
    ) -> list[SearchResults]:
        """Run a batch of searches, amortising per-query setup.

        All queries share one cursor factory and one parsed-plan cache (see
        :meth:`repro.engine.executor.Executor.execute_many`), which matters
        when serving many small queries against the same index: repeated
        query shapes skip re-planning entirely.
        """
        check_top_k(top_k)
        parsed_queries = [self._as_query(query, language) for query in queries]
        if self._cluster is not None:
            outcomes: Sequence[EvaluationResult] = self._cluster.execute_many(
                [parsed.node for parsed in parsed_queries],
                engine=engine,
                top_k=top_k,
            )
        else:
            self._refresh_scoring()
            outcomes = self._executor.execute_many(
                [parsed.node for parsed in parsed_queries],
                engine=engine,
                top_k=top_k,
            )
        return [
            self._build_results(parsed, outcome, top_k)
            for parsed, outcome in zip(parsed_queries, outcomes)
        ]

    def evaluate(
        self,
        query: "str | Query | ast.QueryNode",
        language: str = "auto",
        engine: str = AUTO,
    ) -> EvaluationResult:
        """Lower-level entry point returning the raw :class:`EvaluationResult`."""
        parsed = self._as_query(query, language)
        if self._cluster is not None:
            return self._cluster.execute(parsed.node, engine=engine)
        self._refresh_scoring()
        return self._executor.execute(parsed.node, engine=engine)

    def explain(
        self,
        query: "str | Query | ast.QueryNode",
        language: str = "auto",
        analyze: bool = False,
        engine: str = AUTO,
        top_k: int | None = None,
    ) -> dict:
        """Describe how a query would be run (class, engine, measures, calculus).

        With ``analyze=True`` the query is actually executed
        (``search(..., explain=True)``) and the static description gains an
        ``"analyze"`` key holding the EXPLAIN ANALYZE payload: the operator
        tree with per-cursor op counts, top-k collector statistics and --
        on the cluster path -- per-shard subtrees.
        """
        parsed = self._as_query(query, language)
        from repro.engine.executor import NATIVE_ENGINE

        description = {
            "text": parsed.text,
            "language_class": parsed.language_class.value,
            "engine": NATIVE_ENGINE[parsed.language_class],
            "measures": parsed.measures(),
            "calculus": parsed.to_calculus().to_text(),
        }
        if analyze:
            results = self.search(
                parsed, engine=engine, top_k=top_k, explain=True
            )
            description["analyze"] = results.metadata.get("explain")
        return description

    # ------------------------------------------------------------- internals
    def _resolve_scoring(
        self, scoring: "str | ScoringModel | None"
    ) -> ScoringModel | None:
        if scoring is None:
            return None
        if isinstance(scoring, ScoringModel):
            return scoring
        if isinstance(scoring, str):
            return get_model(scoring, self.index.statistics)
        raise ScoringError(
            "scoring must be None, a model name, or a ScoringModel instance"
        )

    def _preview(self, node_id: int) -> str:
        """The node's text preview, tolerant of a concurrent delete.

        On a live index a matched node can be deleted between evaluation
        (which correctly saw it, per snapshot isolation) and preview
        materialisation; the query result is still valid for its snapshot,
        so the preview degrades gracefully instead of failing the search.
        """
        node = self.collection.nodes.get(node_id)
        if node is None:
            return "(deleted)"
        return node.text_preview()

    def _as_query(self, query: "str | Query | ast.QueryNode", language: str) -> Query:
        if isinstance(query, Query):
            return query
        if isinstance(query, ast.QueryNode):
            from repro.languages.classify import classify_query

            return Query(
                text=query.to_text(),
                language=language,
                node=query,
                language_class=classify_query(query, self.registry),
            )
        return parse_query(query, language, self.registry)

    def _build_results(
        self, parsed: Query, outcome: EvaluationResult, top_k: int | None = None
    ) -> SearchResults:
        ranked = outcome.ranked()
        if top_k is not None:
            # Truncate before materialising previews: only the returned
            # results pay the per-node preview cost, not every match.
            ranked = ranked[:top_k]
        results = [
            SearchResult(
                node_id=node_id,
                score=score,
                preview=self._preview(node_id),
            )
            for node_id, score in ranked
        ]
        metadata = {}
        if isinstance(outcome, MergedEvaluationResult):
            metadata = {"shards": outcome.shard_count}
            if self._cluster is not None and self._cluster.cache is None:
                metadata["cache"] = "off"
            elif outcome.explain is not None:
                # Explained executions bypass the cache so every shard
                # reports fresh per-cursor counts.
                metadata["cache"] = "bypass"
            else:
                metadata["cache"] = "hit" if outcome.from_cache else "miss"
        if outcome.explain is not None:
            metadata["explain"] = outcome.explain
        return SearchResults(
            query_text=parsed.text,
            results=results,
            language_class=outcome.language_class,
            engine=outcome.engine,
            elapsed_seconds=outcome.elapsed_seconds,
            cursor_stats=outcome.cursor_stats,
            total_matches=len(outcome.node_ids),
            metadata=metadata,
            plan=outcome.plan,
        )
