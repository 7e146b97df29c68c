"""The traced run: per-layer metrics, measured from outside.

A layer is a package under ``src/repro``.  After a few ordinary passes (the
base line), ``trace()`` runs one more pass with a span around every op, then
replays each op through successively deeper public boundaries

    core.search -> core.parse_query -> languages.parse / classify
                -> cluster.execute -> planner.canonical_key
                -> engine.execute_scored -> engine.execute_unscored
                -> planner.plan -> planner.canonical_key

recording each replay as a child of the span it would have run inside (see
spans.py for the self-time rule).  Counts come from return values,
``cache_stats()`` / ``optimizer_stats()`` / ``/stats`` and deltas of the
``repro.telemetry`` registry.  A metric of a layer the workload does not
exercise is reported as 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time

from inputs import TOP_K
from spans import Tracer
from workloads import ENGINE_OPTIONS, HttpHot, LibMixed, LibShardedZipf, LiveRw

from repro import telemetry
from repro.cluster.merge import merge_shard_results
from repro.cluster.scatter import ScatterGatherExecutor
from repro.cluster.sharded_index import ShardedIndex
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus.collection import Collection
from repro.corpus.document import ContextNode
from repro.engine.executor import NATIVE_ENGINE, Executor
from repro.index.inverted_index import InvertedIndex
from repro.languages.classify import classify_query
from repro.languages.parser import LanguageLevel, QueryParser
from repro.model.predicates import default_registry
from repro.planner.ir import canonical_key
from repro.scoring.base import get_model
from repro.server.http import read_request, render_response
from repro.telemetry import instruments

LAYERS = ("languages", "planner", "engine", "scoring", "core", "cluster",
          "segments", "server", "corpus")

#: (name, unit, better).  For counts and shares "better" only says which way
#: an optimisation is expected to push them; per-layer metrics are not gated.
PER_LAYER = (
    ("languages.parse_us_per_op", "us", "lower"),
    ("languages.classify_us_per_op", "us", "lower"),
    ("planner.canonical_key_us_per_op", "us", "lower"),
    ("planner.plan_us_per_op", "us", "lower"),
    ("planner.memo_hit_ratio", "ratio", "higher"),
    ("planner.plans_built", "count", "lower"),
    ("corpus.tokenize_docs_s", "1/s", "higher"),
    ("index.build_docs_s", "1/s", "higher"),
    ("index.packed_write_mb_s", "MB/s", "higher"),
    ("index.packed_open_ms", "ms", "lower"),
    ("index.packed_bytes_per_text_byte", "ratio", "lower"),
    ("index.memory_bytes_per_text_byte", "ratio", "lower"),
    ("index.cursor_ops_per_op", "count", "lower"),
    ("index.seek_probes_per_op", "count", "lower"),
    ("index.positions_returned_per_op", "count", "lower"),
    ("engine.bool_ms_per_op", "ms", "lower"),
    ("engine.ppred_ms_per_op", "ms", "lower"),
    ("engine.npred_ms_per_op", "ms", "lower"),
    ("engine.topk_scored_ratio", "ratio", "lower"),
    ("scoring.score_topk_ms_per_op", "ms", "lower"),
    ("scoring.stats_build_ms", "ms", "lower"),
    ("core.search_overhead_us_per_op", "us", "lower"),
    ("cluster.cache_hit_ratio", "ratio", "higher"),
    ("cluster.cache_hit_us_per_op", "us", "lower"),
    ("cluster.miss_ms_per_op", "ms", "lower"),
    ("cluster.scatter_overhead_ratio", "ratio", "lower"),
    ("cluster.merge_us_per_op", "us", "lower"),
    ("cluster.cache_evictions_per_op", "ratio", "lower"),
    ("cluster.build_docs_s", "1/s", "higher"),
    ("segments.add_ms_per_op", "ms", "lower"),
    ("segments.update_ms_per_op", "ms", "lower"),
    ("segments.delete_ms_per_op", "ms", "lower"),
    ("segments.read_steady_ms_per_op", "ms", "lower"),
    ("segments.read_after_write_ms_per_op", "ms", "lower"),
    ("segments.flush_ms", "ms", "lower"),
    ("segments.compact_ms", "ms", "lower"),
    ("segments.seals", "count", "lower"),
    ("segments.compactions", "count", "lower"),
    ("segments.segments_per_read", "count", "lower"),
    ("segments.wal_bytes_per_text_byte", "ratio", "lower"),
    ("segments.write_amplification", "ratio", "lower"),
    ("segments.reopen_ms", "ms", "lower"),
    ("server.http_overhead_ms_per_op", "ms", "lower"),
    ("server.request_parse_us", "us", "lower"),
    ("server.render_response_us", "us", "lower"),
    ("server.batch_size_mean", "count", "higher"),
    ("server.start_ms", "ms", "lower"),
    ("server.rejected_ratio", "ratio", "lower"),
    ("telemetry.enabled_overhead_ratio", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.pass_iqr_ratio_throughput", "ratio", "lower"),
    ("bench.pass_iqr_ratio_latency_p50", "ratio", "lower"),
    ("bench.pass_iqr_ratio_latency_p95", "ratio", "lower"),
    ("bench.pass_iqr_ratio_cpu", "ratio", "lower"),
    ("bench.generator_cpu_share", "ratio", "lower"),
) + tuple((f"{layer}.self_time_share", "ratio", "lower") for layer in LAYERS)


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


class StaticChain:
    """Replays one query through the single-index boundaries."""

    def __init__(self, index: InvertedIndex) -> None:
        self.registry = default_registry()
        self.parser = QueryParser(LanguageLevel.COMP, self.registry)
        options = {"access_mode": ENGINE_OPTIONS["access_mode"],
                   "optimizer": ENGINE_OPTIONS["optimizer"]}
        self.unscored = Executor(index, self.registry, None, **options)
        self.scored = Executor(
            index, self.registry,
            get_model(ENGINE_OPTIONS["scoring"], index.statistics), **options,
        )
        self.cursor_ops = self.seek_probes = self.positions = 0
        self.scored_nodes = self.matches = 0

    def parse(self, tracer: Tracer, op: int, parent: int, text: str):
        query, span = tracer.call("core.parse_query", "core", op, parent, parse_query, text)
        tracer.call("languages.parse", "languages", op, span, self.parser.parse_closed, text)
        tracer.call("languages.classify", "languages", op, span,
                    classify_query, query.node, self.registry)
        return query.node

    def execute(self, tracer: Tracer, op: int, parent: int, node, cls: str):
        outcome, scored = tracer.call(
            "engine.execute_scored", "scoring", op, parent,
            lambda: self.scored.execute(node, top_k=TOP_K), cls=cls)
        _, unscored = tracer.call("engine.execute_unscored", "engine", op, scored,
                                  self.unscored.execute, node, cls=cls)
        language_class, _ = tracer.call("languages.classify", "languages", op, unscored,
                                        classify_query, node, self.registry)
        planner = self.unscored.planner
        _, plan = tracer.call(
            "planner.plan", "planner", op, unscored,
            lambda: planner.plan(
                node, engine=NATIVE_ENGINE[language_class],
                language_class=language_class.value, optimizer="on",
                access_mode=ENGINE_OPTIONS["access_mode"], top_k=None, scored=False))
        tracer.call("planner.canonical_key", "planner", op, plan, canonical_key, node)
        stats = outcome.cursor_stats
        if stats is not None:
            self.cursor_ops += (stats.next_entry_calls + stats.get_positions_calls
                                + stats.seek_calls)
            self.seek_probes += stats.seek_probes
            self.positions += stats.positions_returned
        # Untimed: how many of the matches did top-k pushdown actually score?
        explained = self.scored.execute(node, top_k=TOP_K, explain=True)
        top_k = (explained.explain or {}).get("top_k")
        if top_k:
            self.scored_nodes += top_k["scored"]
            self.matches += len(explained.node_ids)
        return outcome

    def counts(self, ops: int) -> dict:
        return {
            "index.cursor_ops_per_op": self.cursor_ops / ops,
            "index.seek_probes_per_op": self.seek_probes / ops,
            "index.positions_returned_per_op": self.positions / ops,
            "engine.topk_scored_ratio": self.scored_nodes / max(self.matches, 1),
        }


def span_metrics(tracer: Tracer) -> dict:
    """The metrics that are plain statistics of named spans."""
    us, ms = 1e6, 1e3
    out = {
        "languages.parse_us_per_op": mean(tracer.durations("languages.parse")) * us,
        "languages.classify_us_per_op": mean(tracer.durations("languages.classify")) * us,
        "planner.canonical_key_us_per_op": mean(tracer.durations("planner.canonical_key")) * us,
        "planner.plan_us_per_op": mean(tracer.durations("planner.plan")) * us,
        "scoring.score_topk_ms_per_op": mean(tracer.self_durations("engine.execute_scored")) * ms,
        "core.search_overhead_us_per_op": mean(tracer.self_durations("core.search")) * us,
    }
    for cls in ("bool", "ppred", "npred"):
        out[f"engine.{cls}_ms_per_op"] = (
            mean(tracer.durations("engine.execute_unscored", cls=cls)) * ms
        )
    shares = tracer.layer_shares()
    for layer in LAYERS:
        out[f"{layer}.self_time_share"] = shares.get(layer, 0.0)
    return out


def setup_metrics(workload) -> dict:
    parts = workload.setup_parts
    out = {"corpus.tokenize_docs_s": workload.nodes / parts["tokenize_s"]}
    if "packed_write_s" in parts:
        out["index.packed_write_mb_s"] = workload.stored_bytes / 1e6 / parts["packed_write_s"]
        out["index.packed_open_ms"] = parts["packed_open_s"] * 1e3
        out["index.packed_bytes_per_text_byte"] = workload.stored_bytes / workload.text_bytes
    if "stats_build_s" in parts:
        out["scoring.stats_build_ms"] = parts["stats_build_s"] * 1e3
    return out


def traced_search(workload, tracer: Tracer, engine, op: int) -> int:
    """The outermost boundary of one op: the user's own call."""
    text = workload.texts[op]
    results, span = tracer.call(
        "core.search", "core", op, None,
        lambda: engine.search(text, top_k=TOP_K), cls=workload.kinds[op])
    tracer.annotate(span, cache=results.metadata.get("cache", "off"))
    return span


# --------------------------------------------------------------------------
def trace_lib_mixed(workload: LibMixed, tracer: Tracer, passes) -> dict:
    engine = workload.engine
    chain = StaticChain(workload.index)
    before = engine.optimizer_stats()
    started = time.perf_counter()
    for op, (text, cls) in enumerate(zip(workload.texts, workload.kinds)):
        top = traced_search(workload, tracer, engine, op)
        node = chain.parse(tracer, op, top, text)
        chain.execute(tracer, op, top, node, cls)
    wall = time.perf_counter() - started
    after = engine.optimizer_stats()
    built = after["plans_built"] - before["plans_built"]
    hits = after["memo_hits"] - before["memo_hits"]
    out = chain.counts(len(workload.texts))
    out.update({
        "traced_wall_s": wall,
        "planner.plans_built": built,
        "planner.memo_hit_ratio": hits / max(hits + built, 1),
        "index.build_docs_s": workload.nodes / workload.setup_parts["build_s"],
        "index.memory_bytes_per_text_byte":
            workload.index.memory_footprint()["total_bytes"] / workload.text_bytes,
    })
    # The telemetry spine's own cost: identical passes with the registry off
    # and on, interleaved so drift hits both sides.
    walls = {False: [], True: []}
    try:
        for _ in range(2):
            for enabled in (False, True):
                telemetry.set_enabled(enabled)
                walls[enabled].append(workload.run_pass().wall_s)
    finally:
        telemetry.set_enabled(True)
    out["telemetry.enabled_overhead_ratio"] = (
        statistics.median(walls[True]) / statistics.median(walls[False])
    )
    return out


def trace_lib_sharded_zipf(workload: LibShardedZipf, tracer: Tracer, passes) -> dict:
    sharded: ShardedIndex = workload.index
    registry = default_registry()
    cluster = ScatterGatherExecutor(
        sharded, registry, ENGINE_OPTIONS["scoring"],
        access_mode=ENGINE_OPTIONS["access_mode"],
        cache_size=workload.CACHE_SIZE,
        max_workers=workload.engine_arguments["max_workers"],
        optimizer=ENGINE_OPTIONS["optimizer"],
    )
    chain = StaticChain(InvertedIndex(sharded.collection))
    shard_executors = [
        Executor(shard.index, registry,
                 get_model(ENGINE_OPTIONS["scoring"], sharded.statistics),
                 access_mode=ENGINE_OPTIONS["access_mode"], optimizer="off")
        for shard in sharded.shards
    ]
    try:
        # Bring the replay cache to the state the engine's own cache is in
        # at the start of a pass: one full pass of the same stream.
        for text in workload.texts:
            cluster.execute(parse_query(text).node, top_k=TOP_K)
        merges = 0
        started = time.perf_counter()
        for op, (text, cls) in enumerate(zip(workload.texts, workload.kinds)):
            top = traced_search(workload, tracer, workload.engine, op)
            node = chain.parse(tracer, op, top, text)
            merged, span = tracer.call(
                "cluster.execute", "cluster", op, top,
                lambda: cluster.execute(node, top_k=TOP_K), cls=cls)
            tracer.annotate(span, hit=merged.from_cache)
            tracer.call("planner.canonical_key", "planner", op, span, canonical_key, node)
            if merged.from_cache:
                continue
            chain.execute(tracer, op, span, node, cls)
            if merges < 100:
                merges += 1
                per_shard = [e.execute(node, top_k=TOP_K) for e in shard_executors]
                tracer.call("cluster.merge", "cluster", op, span,
                            merge_shard_results, per_shard, 0.0, TOP_K)
        wall = time.perf_counter() - started
    finally:
        cluster.close()
    cache = passes[-1].extra["cache"]
    lookups = cache["hits"] + cache["misses"]
    miss = tracer.durations("cluster.execute", hit=False)
    single = tracer.durations("engine.execute_scored")
    out = chain.counts(len(workload.texts))
    out.update({
        "traced_wall_s": wall,
        "cluster.cache_hit_ratio": cache["hits"] / lookups,
        "cluster.cache_evictions_per_op": cache["evictions"] / lookups,
        "cluster.cache_hit_us_per_op":
            mean(tracer.self_durations("cluster.execute", hit=True)) * 1e6,
        "cluster.miss_ms_per_op": mean(miss) * 1e3,
        "cluster.scatter_overhead_ratio": sum(miss) / max(sum(single), 1e-12),
        "cluster.merge_us_per_op": mean(tracer.durations("cluster.merge")) * 1e6,
        "cluster.build_docs_s": workload.nodes / workload.setup_parts["build_s"],
        "index.memory_bytes_per_text_byte":
            sharded.memory_footprint()["total_bytes"] / workload.text_bytes,
    })
    return out


def trace_http_hot(workload: HttpHot, tracer: Tracer, passes) -> dict:
    before = workload.get_json("/stats")["server"]["batching"]
    started = time.perf_counter()
    out_threads = workload._threads_pass(workload._client)
    after_stats = workload.get_json("/stats")["server"]
    after = after_stats["batching"]
    top = []
    texts = []
    for stream, client in zip(workload.streams, out_threads):
        for (hot, _path), latency, began in zip(stream, client.latencies, client.starts):
            top.append(tracer.add("server.request", "server", len(top), None,
                                  began, began + latency, cls=workload.hot[hot].cls))
            texts.append(workload.hot[hot].text)
    # The same ops straight into an equivalent in-process engine (one shard
    # behind the result cache, which is what serve-http builds).
    collection = Collection.from_texts(workload.corpus.texts, name="bench")
    sharded = ShardedIndex(collection, 1, "hash")
    engine = FullTextEngine(sharded, cache_size=workload.CACHE_SIZE, **ENGINE_OPTIONS)
    registry = default_registry()
    cluster = ScatterGatherExecutor(
        sharded, registry, ENGINE_OPTIONS["scoring"],
        access_mode=ENGINE_OPTIONS["access_mode"], cache_size=workload.CACHE_SIZE,
        optimizer=ENGINE_OPTIONS["optimizer"],
    )
    chain = StaticChain(InvertedIndex(collection))
    try:
        for query in workload.hot:
            engine.search(query.text, top_k=TOP_K)
            cluster.execute(parse_query(query.text).node, top_k=TOP_K)
        for op, text in enumerate(texts):
            _, search = tracer.call("core.search", "core", op, top[op],
                                    lambda: engine.search(text, top_k=TOP_K))
            node = chain.parse(tracer, op, search, text)
            merged, span = tracer.call("cluster.execute", "cluster", op, search,
                                       lambda: cluster.execute(node, top_k=TOP_K))
            tracer.annotate(span, hit=merged.from_cache)
            tracer.call("planner.canonical_key", "planner", op, span, canonical_key, node)
    finally:
        cluster.close()
        engine.close()
    wall = time.perf_counter() - started

    _status, body = workload._get(workload.connections[0], workload.streams[0][0][1])
    payload = json.loads(body)
    request_bytes = (
        f"GET {workload.streams[0][0][1]} HTTP/1.1\r\nHost: 127.0.0.1:{workload.port}\r\n"
        "Accept-Encoding: identity\r\n\r\n"
    ).encode("latin-1")
    repeats = 2000

    async def parse_canned() -> float:
        reader = asyncio.StreamReader()
        reader.feed_data(request_bytes * repeats)
        reader.feed_eof()
        began = time.perf_counter()
        for _ in range(repeats):
            await read_request(reader)
        return (time.perf_counter() - began) / repeats

    began = time.perf_counter()
    for _ in range(repeats):
        render_response(200, payload)
    render_s = (time.perf_counter() - began) / repeats

    by_status = after_stats["requests"]["by_status"]
    client_cpu = sum(p.extra["client_cpu_s"] for p in passes)
    server_cpu = sum(p.cpu_s for p in passes)
    return {
        "traced_wall_s": wall,
        "server.http_overhead_ms_per_op":
            mean(tracer.self_durations("server.request")) * 1e3,
        "server.request_parse_us": asyncio.run(parse_canned()) * 1e6,
        "server.render_response_us": render_s * 1e6,
        "server.batch_size_mean":
            (after["batched_requests"] - before["batched_requests"])
            / max(after["batches"] - before["batches"], 1),
        "server.start_ms": workload.setup_parts["server_start_s"] * 1e3,
        "server.rejected_ratio":
            sum(n for s, n in by_status.items() if s != "200") / sum(by_status.values()),
        "cluster.cache_hit_ratio":
            len(tracer.matching("cluster.execute", hit=True))
            / len(tracer.matching("cluster.execute")),
        "cluster.cache_hit_us_per_op":
            mean(tracer.self_durations("cluster.execute", hit=True)) * 1e6,
        "bench.generator_cpu_share": client_cpu / (client_cpu + server_cpu),
    }


class WriteTracker:
    """Bytes the live index writes, observed from outside: WAL growth plus the
    size of every file that newly appears (a new name or a new inode -- the
    manifest is replaced atomically) under the live directory."""

    def __init__(self, live_dir) -> None:
        self.live_dir = live_dir
        self.known: dict[str, int] = {}
        self.wal_size = 0
        self.wal_bytes = self.file_bytes = 0
        self.poll(count=False)

    def poll(self, count: bool = True) -> None:
        for folder in (self.live_dir, self.live_dir / "segments"):
            with os.scandir(folder) as entries:
                for entry in entries:
                    if not entry.is_file():
                        continue
                    info = entry.stat()
                    if entry.name == "wal.jsonl":
                        grown = info.st_size - self.wal_size
                        # A smaller WAL was reset at a checkpoint: what it
                        # holds now was all written since.
                        self.wal_bytes += count * (grown if grown >= 0 else info.st_size)
                        self.wal_size = info.st_size
                    elif self.known.get(entry.path) != info.st_ino:
                        self.known[entry.path] = info.st_ino
                        self.file_bytes += count * info.st_size


def trace_live_rw(workload: LiveRw, tracer: Tracer, passes) -> dict:
    engine = workload.engine
    tracker = WriteTracker(workload.live_dir)
    sealing: list[float] = []
    segments_at_read: list[int] = []
    seals_seen = [instruments.MEMTABLE_SEALS_TOTAL.value()]
    names = {"add": "segments.add", "update_alt": "segments.update",
             "update_base": "segments.update", "delete": "segments.delete",
             "read": "segments.search", "read_after_write": "segments.search",
             "compact": "segments.compact"}

    # Replays: a read against a static index of the base documents (the same
    # logical corpus up to the few toggled documents) shows what it costs
    # without segments; a write replays its tokenisation.
    static = InvertedIndex(Collection.from_texts(workload.base_texts, name="bench"))
    static_engine = FullTextEngine(static, **ENGINE_OPTIONS)
    chain = StaticChain(static)
    pool_start = workload.nodes - workload.churn

    def on_op(index, kind, arg, began, ended):
        meta = {"kind": kind}
        if kind.startswith("read"):
            meta["cls"] = workload.reads[arg].cls
            segments_at_read.append(len(engine.segment_stats()))
        top = tracer.add(names[kind], "segments", index, None, began, ended, **meta)
        seals = instruments.MEMTABLE_SEALS_TOTAL.value()
        if seals != seals_seen[0]:
            seals_seen[0] = seals
            sealing.append(ended - began)
        tracker.poll()
        if kind.startswith("read"):
            query = workload.reads[arg]
            _, search = tracer.call(
                "core.search", "core", index, top,
                lambda: static_engine.search(query.text, top_k=TOP_K), cls=query.cls)
            node = chain.parse(tracer, index, search, query.text)
            chain.execute(tracer, index, search, node, query.cls)
        elif kind in ("add", "update_alt", "update_base"):
            if kind == "add":
                text = workload.base_texts[pool_start + arg]
            elif kind == "update_alt":
                text = workload.alt_texts[arg]
            else:
                text = workload.base_texts[arg]
            tracer.call("corpus.tokenize", "corpus", index, top,
                        ContextNode.from_text, 0, text)

    traced = workload._count_failures(workload._run_stream(engine, on_op))
    if traced.failed:
        raise RuntimeError(f"traced pass: {traced.failed} failed op(s)")

    ms = 1e3
    by_kind = lambda kind: tracer.durations(names[kind], kind=kind)  # noqa: E731
    updates = by_kind("update_alt") + by_kind("update_base")
    writes = by_kind("add") + updates
    steady, after_write = by_kind("read"), by_kind("read_after_write")
    reads = len(steady) + len(after_write)
    out = chain.counts(reads)
    out.update({
        "traced_wall_s": traced.wall_s,
        "segments.add_ms_per_op": mean(by_kind("add")) * ms,
        "segments.update_ms_per_op": mean(updates) * ms,
        "segments.delete_ms_per_op": mean(by_kind("delete")) * ms,
        "segments.read_steady_ms_per_op": mean(steady) * ms,
        "segments.read_after_write_ms_per_op": mean(after_write) * ms,
        "scoring.stats_build_ms": (mean(after_write) - mean(steady)) * ms,
        "segments.flush_ms": (mean(sealing) - statistics.median(writes)) * ms if sealing else 0.0,
        "segments.compact_ms": mean(traced.extra["compact_s"]) * ms,
        "segments.seals": traced.extra["seals"],
        "segments.compactions": traced.extra["compactions"],
        "segments.segments_per_read": mean(segments_at_read),
        "segments.wal_bytes_per_text_byte": tracker.wal_bytes / workload.pass_write_bytes,
        "segments.write_amplification":
            (tracker.wal_bytes + tracker.file_bytes) / workload.pass_write_bytes,
        "index.build_docs_s": workload.nodes / workload.setup_parts["build_s"],
        "index.memory_bytes_per_text_byte":
            engine.index.memory_footprint()["total_bytes"] / workload.text_bytes,
    })
    return out


TRACERS = {
    LibMixed.name: trace_lib_mixed,
    LibShardedZipf.name: trace_lib_sharded_zipf,
    HttpHot.name: trace_http_hot,
    LiveRw.name: trace_live_rw,
}


def trace(workload, passes, spreads, work_root) -> dict:
    tracer = Tracer()
    out = TRACERS[workload.name](workload, tracer, passes)
    out = {**span_metrics(tracer), **setup_metrics(workload), **out}
    out["bench.trace_overhead_ratio"] = out.pop("traced_wall_s") / statistics.median(
        p.wall_s for p in passes
    )
    out["bench.pass_iqr_ratio_throughput"] = spreads["throughput_ops_s"]
    out["bench.pass_iqr_ratio_latency_p50"] = spreads["latency_p50_ms"]
    out["bench.pass_iqr_ratio_latency_p95"] = spreads["latency_p95_ms"]
    out["bench.pass_iqr_ratio_cpu"] = spreads["cpu_ms_per_op"]
    path = work_root / f"trace_{workload.name}.json"
    tracer.write(path)
    print(f"# {len(tracer.spans)} spans written to {path}", flush=True)
    shares = {layer: out[f"{layer}.self_time_share"] for layer in LAYERS}
    print("# self-time shares: " + "  ".join(
        f"{layer}={share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda item: -item[1]) if share), flush=True)
    return out


def after_finish(workload) -> dict:
    """Per-layer metrics only known once the end-of-run checks have run."""
    if workload.name == LiveRw.name:
        return {"segments.reopen_ms": workload.reopen_s * 1e3}
    return {}
