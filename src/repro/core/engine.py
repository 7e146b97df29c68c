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

from repro.cluster.live import LiveShardedIndex
from repro.cluster.merge import MergedEvaluationResult
from repro.cluster.partition import balance_report
from repro.cluster.scatter import ScatterGatherExecutor
from repro.cluster.sharded_index import ShardedIndex
from repro.corpus.collection import Collection
from repro.exceptions import ReproError
from repro.index.inverted_index import InvertedIndex
from repro.segments.live_index import LiveIndex
from repro.languages import ast
from repro.model.predicates import Predicate, PredicateRegistry, default_registry
from repro.scoring.base import ScoringModel
from repro.engine.executor import AUTO, EvaluationResult
from repro.engine.topk import check_top_k
from repro.planner import DEFAULT_OPTIMIZER
from repro.core.query import Query, parse_query
from repro.core.results import SearchResult, SearchResults


class FullTextEngine:
    """Index + parser + evaluator + scorer behind one convenient API.

    Every index runs through one dispatch path, a
    :class:`~repro.cluster.scatter.ScatterGatherExecutor` coordinator: it
    classifies and plans each query once, evaluates it on the index's
    shards -- a :class:`~repro.cluster.sharded_index.ShardedIndex`'s N, or
    any single index as the one shard -- and merges the answers (identical
    node ids and scores for every shard count, see :mod:`repro.cluster`)
    with per-query shard/cache metadata.

    ``cache_size`` means one thing on every index: ``None`` (the default)
    or 0 runs uncached, N keeps an N-entry LRU result cache.  Every index
    has a ``generation`` that moves exactly when results may change (an
    append; a live update or delete -- never a flush or compaction); the
    next query then re-binds the scoring model, drops the planner memo and
    stops hitting cache entries from before the write.  ``max_workers`` is
    accepted and ignored: shards always run in the calling thread, and
    existing callers still pass it.
    """

    def __init__(
        self,
        index: "InvertedIndex | LiveIndex | ShardedIndex",
        registry: PredicateRegistry | None = None,
        scoring: "str | ScoringModel | None" = None,
        access_mode: str = "paper",
        max_workers: int | None = None,
        cache_size: int | None = None,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> None:
        self.index = index
        self.registry = registry or default_registry()
        self.access_mode = access_mode
        self.optimizer = optimizer
        #: ``(index.generation, bytes)`` of the last packed-size estimate.
        self._packed_bytes: tuple[int, int] | None = None
        self._coordinator = ScatterGatherExecutor(
            index,
            self.registry,
            scoring,
            access_mode=access_mode,
            cache_size=cache_size,
            optimizer=optimizer,
        )

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
        cache_size: int | None = None,
        live: bool = False,
        live_dir=None,
        flush_threshold: int | None = None,
        optimizer: str = DEFAULT_OPTIMIZER,
    ) -> "FullTextEngine":
        """Build an engine by indexing ``collection``.

        With ``shards > 1`` the collection is partitioned (see
        ``partitioner``: ``"hash"``, ``"round-robin"`` or
        ``"metadata:<key>"``) and every search runs scatter-gather across the
        shards, one after another in the calling thread.  ``cache_size``
        adds an LRU result cache of that many entries at any shard count
        (``None``, the default, or 0 runs uncached).

        With ``live=True`` the index is built on the log-structured segment
        subsystem (:mod:`repro.segments`) and the engine accepts
        :meth:`add_document` / :meth:`update_document` /
        :meth:`delete_document` while serving queries.  ``live_dir`` adds
        WAL + segment-file persistence; ``flush_threshold`` bounds the
        memtable (documents per segment seal).

        ``optimizer`` selects the planning layer's mode: ``"off"`` (the
        default) builds plan artifacts but defers every choice to the
        builtin heuristics, ``"on"`` picks join order, merge strategy and
        the paper→fast upgrade from document frequencies and memoises the
        plan per canonical query.  Results are pinned bit-identical across
        both modes.
        """
        live_options = {}
        if flush_threshold is not None:
            live_options["flush_threshold"] = flush_threshold
        if shards > 1 and live:
            index = LiveShardedIndex(
                collection, shards, partitioner,
                directory=live_dir, **live_options,
            )
        elif shards > 1:
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
            cache_size=cache_size,
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
        """The active scoring model (one for all shards).

        The coordinator re-binds it to fresh statistics once the index
        generation moves -- a snapshot taken at construction would go stale.
        """
        return self._coordinator.scoring

    @property
    def collection(self) -> Collection:
        """The indexed collection (the search context)."""
        return self.index.collection

    @property
    def is_live(self) -> bool:
        """Whether the index accepts updates and deletes while serving."""
        return isinstance(self.index, (LiveIndex, LiveShardedIndex))

    @property
    def num_shards(self) -> int:
        """Number of index shards (1 for a single index)."""
        return self._coordinator.num_shards

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard size figures (one row for a single index)."""
        return self._coordinator.shard_stats()

    def cache_stats(self) -> dict[str, float]:
        """Result-cache statistics (all zeros when uncached)."""
        return self._coordinator.cache_stats()

    def optimizer_stats(self) -> dict:
        """The planning layer's mode plus the planner summary.

        ``"mode"`` plus plans built, memo hits and memo size (the counters
        stay zero with the optimizer ``"off"``: static plans are not
        memoised work).
        """
        return self._coordinator.optimizer_stats()

    def stats(self) -> dict:
        """Consolidated engine-side statistics, the one stats payload.

        ``repro stats`` prints this dictionary and ``repro serve-http``
        serves it verbatim under the ``"engine"`` key of ``/stats``:
        per-shard sizes (plus their ``balance`` when there is more than one
        shard), the paper's ``complexity`` parameters, the columnar memory
        footprint, cache and optimizer counters, and live segment/WAL
        state.  A static index also reports ``packed_bytes_estimate``, its
        size written as packed v4 segments; that serialises every posting
        once, so it is memoised per ``index.generation``.  Live indexes skip
        it: their corpus changes under the estimate.
        """
        shard_stats = self.shard_stats()
        stats = {
            "collection": self.collection.name,
            "nodes": self.index.node_count(),
            "shards": self.num_shards,
            "live": self.is_live,
            "access_mode": self.access_mode,
            "cache": self.cache_stats(),
            "optimizer": self.optimizer_stats(),
            "shard_stats": shard_stats,
            "memory": self.index.memory_footprint(),
            "complexity": self.index.statistics.complexity_parameters().as_dict(),
        }
        if len(shard_stats) > 1:
            stats["balance"] = balance_report(row["nodes"] for row in shard_stats)
        if self.is_live:
            stats["segments"] = self.segment_stats()
            if hasattr(self.index, "wal_stats"):
                stats["wal"] = self.index.wal_stats()
        else:
            stats["packed_bytes_estimate"] = self._packed_bytes_estimate()
        return stats

    def _packed_bytes_estimate(self) -> int:
        generation = self.index.generation
        if self._packed_bytes is None or self._packed_bytes[0] != generation:
            from repro.index.packed import packed_index_bytes

            shards = getattr(self.index, "shards", None)
            indexes = [self.index] if shards is None else [s.index for s in shards]
            self._packed_bytes = (
                generation, sum(packed_index_bytes(index) for index in indexes)
            )
        return self._packed_bytes[1]

    def close(self) -> None:
        """Withdraw the result cache from the gauges and close a live index.

        On a live index this stops background compaction and makes the WAL
        durable.  Idempotent.
        """
        self._coordinator.close()
        if self.is_live:
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

    def register_predicate(self, predicate: Predicate) -> None:
        """Add a user-defined position predicate usable in COMP queries."""
        self.registry.register(predicate)

    def parse(self, text: str, language: str = "auto") -> Query:
        """Parse a query without evaluating it (classified on first read)."""
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
            bit-identical to ``explain=False``.  The result cache is
            bypassed so every shard reports fresh counts.
        trace:
            Optional :class:`~repro.telemetry.trace.Span` receiving nested
            execution spans (``None``, the default, costs nothing).
        """
        check_top_k(top_k)
        parsed = self._as_query(query, language)
        outcome = self._coordinator.execute(
            parsed.node, engine=engine, top_k=top_k, explain=explain, trace=trace,
        )
        return self._build_results(parsed, outcome, top_k)

    def evaluate(
        self,
        query: "str | Query | ast.QueryNode",
        language: str = "auto",
        engine: str = AUTO,
    ) -> EvaluationResult:
        """Lower-level entry point returning the raw :class:`EvaluationResult`."""
        parsed = self._as_query(query, language)
        return self._coordinator.execute(parsed.node, engine=engine)

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
        tree with per-cursor op counts, top-k collector statistics and one
        subtree per shard.
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
            return Query(query.to_text(), language, query, self.registry)
        return parse_query(query, language, self.registry)

    def _build_results(
        self, parsed: Query, outcome: MergedEvaluationResult, top_k: int | None = None
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
        metadata = {"shards": outcome.shard_count}
        if self._coordinator.cache is None:
            metadata["cache"] = "off"
        elif outcome.explain is not None:
            # Explained executions bypass the cache so every shard reports
            # fresh per-cursor counts.
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
