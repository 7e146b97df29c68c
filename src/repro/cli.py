"""Command-line interface.

The CLI exposes the typical lifecycle of the library without writing Python:

* ``repro index``       -- tokenize documents and persist a collection/index;
* ``repro search``      -- run a BOOL / DIST / COMP query against a saved index
  (``--access-mode fast`` switches to seek-based skipping);
* ``repro explain``     -- show a query's language class, engine, measures and
  calculus form; with ``--index`` it also *runs* the query and prints an
  EXPLAIN ANALYZE operator tree with per-cursor operation counts;
* ``repro metrics``     -- Prometheus text metrics: scrape a running
  ``serve-http`` instance's ``/metrics``, or dump this process's registry;
* ``repro info``        -- corpus statistics and complexity parameters of an index;
* ``repro index-stats`` -- posting-storage statistics and the memory footprint
  of the columnar arrays;
* ``repro shard-stats`` -- how a partitioner would spread an index over N
  shards (per-shard sizes and balance);
* ``repro serve``       -- a long-running query server reading one query per
  stdin line (REPL on a terminal, batch otherwise) with per-query latency and
  cache statistics; ``--live`` enables the mutation commands (``:add``,
  ``:update``, ``:delete``, ``:flush``, ``:compact``, ``:segments``);
* ``repro serve-http``  -- the network query service: an asyncio HTTP/JSON
  server with request micro-batching, per-request deadlines, admission
  control, ``/health`` + ``/stats`` endpoints and graceful SIGTERM drain
  (see :mod:`repro.server`); accepts a saved collection file or a live
  data directory;
* ``repro doctor``      -- validate the environment (and optionally an index
  file / live data directory, or a host:port) before serving traffic;
* ``repro ingest``      -- tail a document stream (file or stdin) into a live
  index, optionally interleaving queries to measure serving under ingest;
* ``repro segment-stats`` -- per-segment sizes and tombstone counts of a live
  index (a saved collection or a persisted live-index directory);
* ``repro experiment``  -- regenerate the paper's Figure 3, Figures 5--8 and
  the design ablations as text tables;
* ``repro replay``      -- drive a captured (``serve-http --capture``) or
  synthetic zipfian workload against an engine or a live HTTP endpoint,
  with explicit cache-warming phases, results verified bit-identical to
  direct ``engine.search`` before timing.

Invoke as ``python -m repro ...`` (or the ``repro`` console script when the
package is installed with entry points enabled).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro import __version__
from repro.bench.complexity import QueryParameters, hierarchy_table
from repro.bench.figures import (
    ALL_FIGURES,
    FigureScale,
    ablation_npred_orders,
    ablation_scoring,
    run_all,
)
from repro.bench.reporting import render_report, shape_summary, table_to_text
from repro.cluster import ShardedIndex, balance_report
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus.loaders import load_directory, load_text_files
from repro.exceptions import ReproError
from repro.index.inverted_index import InvertedIndex
from repro.index.packed import packed_index_bytes
from repro.index.storage import load_collection, load_index, save_collection
from repro.planner import DEFAULT_OPTIMIZER, OPTIMIZER_MODES
from repro.telemetry import LatencyRecorder, format_latency_summary
from repro.telemetry.latency import _fmt_ms


def _positive_int(text: str) -> int:
    """Argparse type for ``--top-k``: the uniform ``top_k >= 1`` contract.

    Matches the :func:`repro.engine.topk.check_top_k` validation applied by
    the engine and cluster entry points, so a bad ``k`` fails at argument
    parsing instead of deep inside a search.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_optimizer_argument(command: argparse.ArgumentParser) -> None:
    """The planning-layer mode switch shared by the query-running commands."""
    command.add_argument(
        "--optimizer",
        default=DEFAULT_OPTIMIZER,
        choices=OPTIMIZER_MODES,
        help="query planning layer: 'on' picks join order, merge strategy "
        "and the paper->fast upgrade from document frequencies (plans "
        "memoised per canonical query), 'off' (default) keeps the engines' "
        "builtin heuristics; results are bit-identical in both modes",
    )


def _add_sharding_arguments(command: argparse.ArgumentParser) -> None:
    """The sharding knobs shared by ``search``, ``serve`` and ``shard-stats``."""
    command.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the index over N shards and run scatter-gather "
        "(default: 1, a single index)",
    )
    command.add_argument(
        "--partitioner",
        default="hash",
        help="shard assignment: 'hash', 'round-robin' or 'metadata:<key>' "
        "(default: hash)",
    )


def build_argument_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for documentation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Full-text search languages (EDBT 2006 reproduction).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    index_cmd = subparsers.add_parser(
        "index", help="tokenize documents and write a collection file"
    )
    index_cmd.add_argument("inputs", nargs="+", help="files or a directory to index")
    index_cmd.add_argument("-o", "--output", required=True, help="output .json[.gz] file")
    index_cmd.add_argument(
        "--glob", default="*.txt", help="file pattern when indexing a directory"
    )
    index_cmd.add_argument(
        "--strip-tags", action="store_true", help="strip XML/HTML tags before indexing"
    )

    search_cmd = subparsers.add_parser("search", help="run a query against a saved index")
    search_cmd.add_argument("index_file", help="collection file written by 'repro index'")
    search_cmd.add_argument("query", help="the query text")
    search_cmd.add_argument(
        "--language", default="auto", choices=["auto", "bool", "dist", "comp"]
    )
    search_cmd.add_argument(
        "--engine", default="auto", choices=["auto", "bool", "ppred", "npred", "comp"]
    )
    search_cmd.add_argument(
        "--scoring", default="tfidf", choices=["none", "tfidf", "probabilistic"]
    )
    search_cmd.add_argument("--top-k", type=_positive_int, default=10)
    search_cmd.add_argument(
        "--access-mode",
        default="paper",
        choices=["paper", "fast"],
        help="'paper' charges seeks as sequential scans (the paper's cost "
        "model); 'fast' uses galloping seeks (the production path)",
    )
    _add_optimizer_argument(search_cmd)
    _add_sharding_arguments(search_cmd)

    serve_cmd = subparsers.add_parser(
        "serve",
        help="serve queries from stdin (one per line) with latency stats",
    )
    serve_cmd.add_argument("index_file", help="collection file written by 'repro index'")
    serve_cmd.add_argument(
        "--language", default="auto", choices=["auto", "bool", "dist", "comp"]
    )
    serve_cmd.add_argument(
        "--scoring", default="tfidf", choices=["none", "tfidf", "probabilistic"]
    )
    serve_cmd.add_argument("--top-k", type=_positive_int, default=5)
    serve_cmd.add_argument(
        "--access-mode", default="fast", choices=["paper", "fast"],
        help="cursor access mode (default: fast, the production path)",
    )
    serve_cmd.add_argument(
        "--cache-size", type=int, default=128,
        help="LRU result-cache capacity; 0 disables caching (default: 128)",
    )
    serve_cmd.add_argument(
        "--live", action="store_true",
        help="serve a live (mutable) index: ':add TEXT', ':update ID TEXT', "
        "':delete ID', ':flush', ':compact' and ':segments' become available",
    )
    serve_cmd.add_argument(
        "--flush-threshold", type=int, default=None,
        help="documents the live memtable holds before it is sealed "
        "(default: 256; only with --live)",
    )
    _add_optimizer_argument(serve_cmd)
    _add_sharding_arguments(serve_cmd)

    serve_http_cmd = subparsers.add_parser(
        "serve-http",
        help="serve queries over HTTP/JSON with micro-batching and deadlines",
    )
    serve_http_cmd.add_argument(
        "index_file",
        help="collection file written by 'repro index', or a live data "
        "directory written by 'repro ingest --data-dir'",
    )
    serve_http_cmd.add_argument("--host", default="127.0.0.1")
    serve_http_cmd.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks a free port; the bound port is printed)",
    )
    serve_http_cmd.add_argument(
        "--scoring", default="tfidf", choices=["none", "tfidf", "probabilistic"]
    )
    serve_http_cmd.add_argument(
        "--top-k", type=_positive_int, default=10,
        help="default top_k when a request does not send one (default: 10)",
    )
    serve_http_cmd.add_argument(
        "--access-mode", default="fast", choices=["paper", "fast"],
        help="cursor access mode (default: fast, the production path)",
    )
    serve_http_cmd.add_argument(
        "--cache-size", type=int, default=128,
        help="LRU result-cache capacity; 0 disables caching (default: 128)",
    )
    serve_http_cmd.add_argument(
        "--live", action="store_true",
        help="build the index on the live (mutable) segment subsystem",
    )
    serve_http_cmd.add_argument("--flush-threshold", type=int, default=None)
    serve_http_cmd.add_argument(
        "--max-batch", type=_positive_int, default=32,
        help="largest micro-batch coalesced into one search_many call "
        "(default: 32; 1 disables batching)",
    )
    serve_http_cmd.add_argument(
        "--linger-ms", type=float, default=2.0,
        help="how long the dispatcher waits for stragglers after the first "
        "request of a batch (default: 2.0 ms; 0 disables lingering)",
    )
    serve_http_cmd.add_argument(
        "--max-inflight", type=_positive_int, default=64,
        help="admission limit: requests queued or executing before the "
        "server answers 429 (default: 64)",
    )
    serve_http_cmd.add_argument(
        "--timeout-ms", type=float, default=30_000.0,
        help="default per-request deadline when a request does not send "
        "timeout_ms (default: 30000)",
    )
    serve_http_cmd.add_argument(
        "--drain-grace", type=float, default=10.0,
        help="seconds SIGTERM waits for in-flight requests (default: 10)",
    )
    serve_http_cmd.add_argument(
        "--access-log", default=None, metavar="PATH",
        help="append one JSON object per request to PATH ('-' for stderr)",
    )
    serve_http_cmd.add_argument(
        "--slow-query-ms", type=float, default=None, metavar="MS",
        help="dump a JSONL trace of every search slower than MS milliseconds",
    )
    serve_http_cmd.add_argument(
        "--slow-query-log", default=None, metavar="PATH",
        help="slow-query dump destination ('-' for stderr; default: the "
        "access log stream, else stderr)",
    )
    serve_http_cmd.add_argument(
        "--capture", default=None, metavar="PATH",
        help="record served /search traffic as a replayable JSONL workload "
        "(see 'repro replay')",
    )
    serve_http_cmd.add_argument(
        "--capture-sample", type=float, default=1.0, metavar="FRACTION",
        help="fraction of /search requests recorded into --capture "
        "(default: 1.0, everything)",
    )
    _add_optimizer_argument(serve_http_cmd)
    _add_sharding_arguments(serve_http_cmd)

    doctor_cmd = subparsers.add_parser(
        "doctor",
        help="validate the environment (and optionally an index) for serving",
    )
    doctor_cmd.add_argument(
        "index_path", nargs="?", default=None,
        help="a saved collection file or a live data directory to validate",
    )
    doctor_cmd.add_argument(
        "--host", default=None, help="with --port: check the bind address"
    )
    doctor_cmd.add_argument(
        "--port", type=int, default=None,
        help="check that this TCP port can be bound",
    )

    ingest_cmd = subparsers.add_parser(
        "ingest",
        help="tail documents (one per line) from a file or stdin into a live index",
    )
    ingest_cmd.add_argument(
        "docs", help="document stream: a text file with one document per line, "
        "or '-' for stdin",
    )
    ingest_cmd.add_argument(
        "--base", default=None,
        help="start from a saved collection file instead of an empty index",
    )
    ingest_cmd.add_argument(
        "--data-dir", default=None,
        help="persist the live index (WAL + segment files) in this directory",
    )
    ingest_cmd.add_argument(
        "--queries", default=None,
        help="file with one query per line, served interleaved with the ingest",
    )
    ingest_cmd.add_argument(
        "--query-every", type=int, default=50,
        help="run the query set after every N ingested documents (default: 50)",
    )
    ingest_cmd.add_argument("--flush-threshold", type=int, default=None)
    ingest_cmd.add_argument(
        "--compact", action="store_true",
        help="run a full compaction after the ingest and report the effect",
    )
    ingest_cmd.add_argument(
        "--access-mode", default="fast", choices=["paper", "fast"],
    )
    ingest_cmd.add_argument(
        "--scoring", default="none", choices=["none", "tfidf", "probabilistic"],
    )
    _add_sharding_arguments(ingest_cmd)

    explain_cmd = subparsers.add_parser(
        "explain",
        help="classify a query; with --index, run it and print EXPLAIN ANALYZE",
    )
    explain_cmd.add_argument("query", help="the query text")
    explain_cmd.add_argument(
        "--language", default="auto", choices=["auto", "bool", "dist", "comp"]
    )
    explain_cmd.add_argument(
        "--index", default=None, metavar="FILE",
        help="run the query against this saved index and print the EXPLAIN "
        "ANALYZE operator tree (per-cursor operation counts, top-k pruning, "
        "wall time)",
    )
    explain_cmd.add_argument(
        "--engine", default="auto", choices=["auto", "bool", "ppred", "npred", "comp"]
    )
    explain_cmd.add_argument(
        "--scoring", default="tfidf", choices=["none", "tfidf", "probabilistic"]
    )
    explain_cmd.add_argument("--top-k", type=_positive_int, default=None)
    explain_cmd.add_argument(
        "--access-mode", default="paper", choices=["paper", "fast"],
    )
    _add_sharding_arguments(explain_cmd)

    metrics_cmd = subparsers.add_parser(
        "metrics",
        help="Prometheus metrics: scrape a serve-http instance or dump the "
        "in-process registry",
    )
    metrics_cmd.add_argument(
        "target", nargs="?", default=None,
        help="host:port or URL of a running 'repro serve-http' (its /metrics "
        "is fetched); omitted: render this process's own registry",
    )
    metrics_cmd.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="socket timeout for the scrape (default: 10)",
    )

    replay_cmd = subparsers.add_parser(
        "replay",
        help="replay a captured or synthetic-zipf workload against an "
        "engine or a live serve-http endpoint (verified, then timed)",
    )
    replay_cmd.add_argument(
        "index_file",
        help="collection file; builds the direct reference engine (and, "
        "without --url, the cached replay target)",
    )
    replay_cmd.add_argument(
        "workload", nargs="?", default=None,
        help="JSONL workload from 'serve-http --capture' (omit with "
        "--synthetic-zipf)",
    )
    replay_cmd.add_argument(
        "--synthetic-zipf", type=float, default=None, metavar="SKEW",
        help="generate a zipfian-skewed synthetic workload with this skew "
        "instead of reading a capture file (0 = uniform)",
    )
    replay_cmd.add_argument(
        "--count", type=int, default=200,
        help="synthetic workload length (default: 200)",
    )
    replay_cmd.add_argument(
        "--pool-size", type=int, default=32,
        help="synthetic query pool size, hottest corpus tokens first "
        "(default: 32)",
    )
    replay_cmd.add_argument(
        "--top-k", type=_positive_int, default=10,
        help="top_k of synthetic queries (default: 10)",
    )
    replay_cmd.add_argument(
        "--seed", type=int, default=0,
        help="random seed of the synthetic zipf draw (default: 0)",
    )
    replay_cmd.add_argument(
        "--url", default=None, metavar="URL",
        help="replay over HTTP against a running serve-http instead of an "
        "in-process engine",
    )
    replay_cmd.add_argument(
        "--timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request HTTP timeout with --url (default: 30)",
    )
    replay_cmd.add_argument(
        "--warm-passes", type=int, default=1,
        help="cache-warming passes over the distinct queries before timing "
        "(default: 1; 0 replays cold)",
    )
    replay_cmd.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-identical results check against direct "
        "engine.search (verification is on by default)",
    )
    replay_cmd.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the replay report as JSON to PATH",
    )
    replay_cmd.add_argument(
        "--scoring", default="tfidf", choices=["none", "tfidf", "probabilistic"]
    )
    replay_cmd.add_argument(
        "--access-mode", default="fast", choices=["paper", "fast"]
    )
    replay_cmd.add_argument(
        "--cache-size", type=int, default=128,
        help="result-cache capacity of the in-process replay target "
        "(default: 128; 0 replays uncached)",
    )
    _add_optimizer_argument(replay_cmd)

    info_cmd = subparsers.add_parser("info", help="statistics of a saved index")
    info_cmd.add_argument("index_file")

    index_stats_cmd = subparsers.add_parser(
        "index-stats",
        help="posting-storage statistics and columnar memory footprint",
    )
    index_stats_cmd.add_argument("index_file")

    shard_stats_cmd = subparsers.add_parser(
        "shard-stats",
        help="per-shard sizes and balance for a shard count / partitioner",
    )
    shard_stats_cmd.add_argument("index_file")
    _add_sharding_arguments(shard_stats_cmd)

    segment_stats_cmd = subparsers.add_parser(
        "segment-stats",
        help="per-segment sizes and tombstones of a live index",
    )
    segment_stats_cmd.add_argument(
        "index_path",
        help="a saved collection file, or a live-index directory "
        "(as written by 'repro ingest --data-dir')",
    )
    segment_stats_cmd.add_argument("--flush-threshold", type=int, default=None)

    experiment_cmd = subparsers.add_parser(
        "experiment", help="regenerate the paper's figures"
    )
    experiment_cmd.add_argument(
        "--figure",
        default="all",
        choices=["all", "3", "5", "6", "7", "8"],
        help="which figure to regenerate",
    )
    experiment_cmd.add_argument(
        "--scale", default="laptop", choices=["smoke", "laptop", "paper"]
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_argument_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "index":
            return _command_index(args)
        if args.command == "search":
            return _command_search(args)
        if args.command == "explain":
            return _command_explain(args)
        if args.command == "metrics":
            return _command_metrics(args)
        if args.command == "info":
            return _command_info(args)
        if args.command == "index-stats":
            return _command_index_stats(args)
        if args.command == "shard-stats":
            return _command_shard_stats(args)
        if args.command == "segment-stats":
            return _command_segment_stats(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "serve-http":
            return _command_serve_http(args)
        if args.command == "doctor":
            return _command_doctor(args)
        if args.command == "ingest":
            return _command_ingest(args)
        if args.command == "experiment":
            return _command_experiment(args)
        if args.command == "replay":
            return _command_replay(args)
        parser.error(f"unknown command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------
def _command_index(args: argparse.Namespace) -> int:
    inputs = [Path(item) for item in args.inputs]
    if len(inputs) == 1 and inputs[0].is_dir():
        collection = load_directory(
            inputs[0], pattern=args.glob, strip_tags=args.strip_tags
        )
    else:
        collection = load_text_files(inputs, strip_tags=args.strip_tags)
    save_collection(collection, args.output)
    summary = collection.describe()
    print(
        f"indexed {summary['nodes']} documents "
        f"({summary['tokens']} tokens, vocabulary {summary['vocabulary']}) "
        f"-> {args.output}"
    )
    return 0


def _load_engine(args: argparse.Namespace, cache_size: int | None = None) -> FullTextEngine:
    """Build a (possibly sharded, possibly live) engine from an index file."""
    scoring = None if args.scoring == "none" else args.scoring
    collection = load_collection(args.index_file)
    return FullTextEngine.from_collection(
        collection,
        scoring=scoring,
        access_mode=args.access_mode,
        shards=args.shards,
        partitioner=args.partitioner,
        cache_size=cache_size,
        live=getattr(args, "live", False),
        flush_threshold=getattr(args, "flush_threshold", None),
        optimizer=getattr(args, "optimizer", DEFAULT_OPTIMIZER),
    )


def _command_search(args: argparse.Namespace) -> int:
    engine = _load_engine(args)
    results = engine.search(
        args.query, language=args.language, engine=args.engine, top_k=args.top_k
    )
    print(results.summary())
    if results.metadata["shards"] > 1:
        print(f"(scatter-gather over {results.metadata['shards']} shards)")
    collection = engine.collection
    for rank, result in enumerate(results, start=1):
        title = collection.get(result.node_id).metadata.get("title", "")
        label = f" [{title}]" if title else ""
        print(f"{rank:3d}. node {result.node_id}{label}  score={result.score:.4f}")
        print(f"     {result.preview}")
    engine.close()
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    query = parse_query(args.query, args.language)
    from repro.engine.executor import NATIVE_ENGINE

    print(f"query          : {query.text}")
    print(f"language class : {query.language_class.value}")
    print(f"engine         : {NATIVE_ENGINE[query.language_class]}")
    measures = query.measures()
    print(
        "measures       : "
        f"toks_Q={measures['toks_Q']} preds_Q={measures['preds_Q']} "
        f"ops_Q={measures['ops_Q']}"
    )
    print(f"calculus       : {query.to_calculus().to_text()}")
    if getattr(args, "index", None) is None:
        return 0
    from repro.telemetry.explain import render_explain

    args.index_file = args.index
    engine = _load_engine(args)
    try:
        description = engine.explain(
            args.query,
            language=args.language,
            analyze=True,
            engine=args.engine,
            top_k=args.top_k,
        )
        print()
        print(render_explain(description["analyze"]))
    finally:
        engine.close()
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    if args.target:
        from urllib.error import URLError
        from urllib.request import urlopen

        target = args.target
        if not target.startswith(("http://", "https://")):
            target = f"http://{target}"
        if not target.rstrip("/").endswith("/metrics"):
            target = target.rstrip("/") + "/metrics"
        try:
            with urlopen(target, timeout=args.timeout) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except URLError as exc:
            reason = exc.reason
            if isinstance(reason, ConnectionRefusedError):
                print(
                    f"error: connection refused by {target} -- is "
                    f"'repro serve-http' running there?",
                    file=sys.stderr,
                )
            elif isinstance(reason, TimeoutError):
                print(
                    f"error: {target} did not answer within "
                    f"{args.timeout:g} s (--timeout raises the limit)",
                    file=sys.stderr,
                )
            else:
                print(f"error: cannot scrape {target}: {reason}", file=sys.stderr)
            return 1
        except (OSError, ValueError) as exc:
            print(f"error: cannot scrape {target}: {exc}", file=sys.stderr)
            return 1
        return 0
    from repro.telemetry import render_metrics

    sys.stdout.write(render_metrics())
    return 0


def _command_replay(args: argparse.Namespace) -> int:
    from repro.bench.capture import (
        load_workload,
        query_pool_from_collection,
        synthetic_zipf_workload,
    )
    from repro.bench.replay import (
        EngineTarget,
        HttpTarget,
        render_replay_report,
        replay_workload,
        write_replay_report,
    )

    if (args.workload is None) == (args.synthetic_zipf is None):
        raise ReproError(
            "pass exactly one workload source: a capture file, or "
            "--synthetic-zipf SKEW"
        )
    scoring = None if args.scoring == "none" else args.scoring
    collection = load_collection(args.index_file)
    if args.workload is not None:
        records = load_workload(args.workload)
        source = args.workload
    else:
        pool = query_pool_from_collection(collection, size=args.pool_size)
        records = synthetic_zipf_workload(
            pool,
            args.count,
            args.synthetic_zipf,
            top_k=args.top_k,
            seed=args.seed,
        )
        source = f"synthetic zipf (skew {args.synthetic_zipf:g})"
    # The reference engine is the plain, uncached direct path -- the ground
    # truth every served result must match bit-for-bit.
    reference = FullTextEngine.from_collection(
        collection, scoring=scoring, access_mode=args.access_mode
    )
    target_engine = None
    try:
        if args.url:
            target = HttpTarget(args.url, timeout=args.timeout)
        else:
            target_engine = FullTextEngine.from_collection(
                collection,
                scoring=scoring,
                access_mode=args.access_mode,
                cache_size=args.cache_size if args.cache_size > 0 else None,
                optimizer=args.optimizer,
            )
            target = EngineTarget(target_engine)
        print(f"replay: {len(records)} record(s) from {source}")
        report = replay_workload(
            records,
            target,
            reference_engine=None if args.no_verify else reference,
            warm_passes=max(args.warm_passes, 0),
            verify=not args.no_verify,
            echo=print,
        )
    finally:
        reference.close()
        if target_engine is not None:
            target_engine.close()
    print(render_replay_report(report))
    if args.json_out:
        path = write_replay_report(report, args.json_out)
        print(f"report written to {path}")
    return 0


def _command_info(args: argparse.Namespace) -> int:
    index = load_index(args.index_file, validate=False)
    summary = index.collection.describe()
    params = index.statistics.complexity_parameters()
    print(f"collection     : {index.collection.name}")
    for key, value in summary.items():
        print(f"{key:22}: {value}")
    print("complexity parameters:")
    for key, value in params.as_dict().items():
        print(f"  {key:20}: {value}")
    print("analytic bounds (3 tokens, 2 predicates, 4 operations):")
    for name, bound in hierarchy_table(params, QueryParameters(3, 2, 4)):
        print(f"  {name:11}: {bound:,.0f} operations")
    return 0


def _command_index_stats(args: argparse.Namespace) -> int:
    index = load_index(args.index_file, validate=False)
    total_postings = sum(pl.document_frequency() for pl in index.posting_lists())
    total_positions = sum(pl.total_positions() for pl in index.posting_lists())
    footprint = index.memory_footprint()
    print(f"collection     : {index.collection.name}")
    print(f"nodes          : {index.node_count()}")
    print(f"tokens         : {len(index.tokens())}")
    print(f"postings       : {total_postings}")
    print(f"positions      : {total_positions}")
    print(f"any-list size  : {len(index.any_list())} entries, "
          f"{index.any_list().total_positions()} positions")
    print("columnar memory footprint:")
    for key, value in footprint.items():
        print(f"  {key:20}: {value:,} bytes")
    if total_positions:
        per_position = footprint["total_bytes"] / (
            total_positions + index.any_list().total_positions()
        )
        print(f"  bytes/position      : {per_position:.1f}")
    packed_bytes = packed_index_bytes(index)
    source_bytes = Path(args.index_file).stat().st_size
    print("on-disk formats:")
    print(f"  source file         : {source_bytes:,} bytes ({args.index_file})")
    print(f"  packed v4           : {packed_bytes:,} bytes")
    if source_bytes:
        print(f"  packed/source ratio : {packed_bytes / source_bytes:.2f}")
    if footprint["total_bytes"]:
        print(
            f"  packed/memory ratio : "
            f"{packed_bytes / footprint['total_bytes']:.2f}"
        )
    return 0


def _command_shard_stats(args: argparse.Namespace) -> int:
    collection = load_collection(args.index_file)
    sharded = ShardedIndex(collection, max(args.shards, 1), args.partitioner)
    stats = sharded.shard_stats()
    print(f"collection     : {collection.name}")
    print(f"partitioner    : {sharded.partitioner.describe()}")
    print(f"shards         : {sharded.num_shards}")
    header = f"{'shard':>5} {'nodes':>8} {'tokens':>8} {'postings':>10} {'positions':>10} {'memory':>12}"
    print(header)
    for row in stats:
        print(
            f"{row['shard']:>5} {row['nodes']:>8} {row['tokens']:>8} "
            f"{row['postings']:>10} {row['positions']:>10} "
            f"{row['memory_bytes']:>10,} B"
        )
    balance = balance_report(row["nodes"] for row in stats)
    print(
        f"balance        : min={balance['min']} max={balance['max']} "
        f"mean={balance['mean']:.1f} imbalance={balance['imbalance'] * 100:.1f}%"
    )
    footprint = sharded.memory_footprint()
    print(
        f"memory         : {footprint['total_bytes']:,} B total "
        f"(node ids {footprint['node_ids_bytes']:,} B, "
        f"offsets {footprint['offsets_bytes']:,} B, "
        f"bounds {footprint['entry_bounds_bytes']:,} B, "
        f"structure {footprint['structure_bytes']:,} B)"
    )
    packed_total = sum(
        packed_index_bytes(shard.index) for shard in sharded.shards
    )
    source_bytes = Path(args.index_file).stat().st_size
    line = (
        f"packed v4      : {packed_total:,} B over {sharded.num_shards} "
        f"shard spill files"
    )
    if source_bytes:
        line += f" ({packed_total / source_bytes:.2f}x the source file)"
    print(line)
    return 0


def _print_segment_rows(rows: list[dict], with_shard: bool = False) -> None:
    shard_col = f"{'shard':>5} " if with_shard else ""
    print(
        f"{shard_col}{'segment':>8} {'docs':>8} {'live':>8} {'tombs':>6} "
        f"{'tokens':>8} {'positions':>10} {'memory':>12}"
    )
    for row in rows:
        label = "memtable" if row["generation"] < 0 else str(row["generation"])
        shard_val = f"{row['shard']:>5} " if with_shard else ""
        print(
            f"{shard_val}{label:>8} {row['docs']:>8} {row['live_docs']:>8} "
            f"{row['tombstones']:>6} {row['tokens']:>8} {row['positions']:>10} "
            f"{row['memory_bytes']:>10,} B"
        )


def _command_segment_stats(args: argparse.Namespace) -> int:
    from repro.segments import LiveIndex

    path = Path(args.index_path)
    kwargs = {}
    if args.flush_threshold is not None:
        kwargs["flush_threshold"] = args.flush_threshold
    if path.is_dir():
        index = LiveIndex.open(path, **kwargs)
    else:
        index = LiveIndex(load_collection(path), **kwargs)
    try:
        rows = index.segment_stats()
        print(f"live documents : {index.node_count()}")
        print(f"segments       : {len(rows)}")
        _print_segment_rows(rows)
        footprint = index.memory_footprint()
        print(f"memory         : {footprint['total_bytes']:,} B total")
    finally:
        index.close()
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    if args.base is not None:
        collection = load_collection(args.base)
    else:
        from repro.corpus import Collection

        collection = Collection({}, "ingested")
    scoring = None if args.scoring == "none" else args.scoring
    engine = FullTextEngine.from_collection(
        collection,
        scoring=scoring,
        access_mode=args.access_mode,
        shards=args.shards,
        partitioner=args.partitioner,
        live=True,
        live_dir=args.data_dir,
        flush_threshold=args.flush_threshold,
    )
    queries: list[str] = []
    if args.queries is not None:
        queries = [
            line.strip()
            for line in Path(args.queries).read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")
        ]
    stream = sys.stdin if args.docs == "-" else open(args.docs, "r", encoding="utf-8")
    ingested = 0
    recorder = LatencyRecorder()
    started = time.perf_counter()
    try:
        for line in stream:
            text = line.strip()
            if not text:
                continue
            engine.add_document(text)
            ingested += 1
            if queries and ingested % max(args.query_every, 1) == 0:
                for query in queries:
                    q_started = time.perf_counter()
                    engine.search(query, top_k=5)
                    recorder.record((time.perf_counter() - q_started) * 1000.0)
        elapsed = time.perf_counter() - started
    finally:
        if stream is not sys.stdin:
            stream.close()
    rate = ingested / elapsed if elapsed > 0 else 0.0
    print(f"ingested {ingested} documents in {elapsed:.2f}s ({rate:,.0f} docs/s)")
    if recorder.count:
        print(
            f"served {recorder.count} queries during ingest: "
            f"p50={_fmt_ms(recorder.percentile_ms(0.50))} "
            f"p95={_fmt_ms(recorder.percentile_ms(0.95))}"
        )
    rows = engine.segment_stats()
    print(f"segments after ingest: {len(rows)}")
    if args.compact:
        report = engine.compact()
        rows = engine.segment_stats()
        print(
            f"compacted: merged {report['segments_merged']} segments in "
            f"{report['merges']} merge(s); {len(rows)} segment(s) remain"
        )
    _print_segment_rows(rows, with_shard=args.shards > 1)
    engine.close()
    return 0


def _serve_live_command(engine: FullTextEngine, command: str) -> bool:
    """Execute a live mutation command; returns False when unrecognised."""
    parts = command.split(None, 1)
    head = parts[0]
    rest = parts[1] if len(parts) > 1 else ""
    if head == ":add":
        if not rest:
            print("usage: :add TEXT")
            return True
        node_id = engine.add_document(rest)
        print(f"added node {node_id}")
        return True
    if head == ":update":
        pieces = rest.split(None, 1)
        if len(pieces) < 2 or not pieces[0].isdigit():
            print("usage: :update ID TEXT")
            return True
        engine.update_document(int(pieces[0]), pieces[1])
        print(f"updated node {pieces[0]}")
        return True
    if head == ":delete":
        if not rest.strip().isdigit():
            print("usage: :delete ID")
            return True
        removed = engine.delete_document(int(rest.strip()))
        print(f"deleted node {rest.strip()}" if removed else f"no node {rest.strip()}")
        return True
    if head == ":flush":
        engine.flush()
        print(f"flushed; {len(engine.segment_stats())} segment(s)")
        return True
    if head == ":compact":
        report = engine.compact()
        print(
            f"compacted {report['segments_merged']} segment(s) in "
            f"{report['merges']} merge(s); {len(engine.segment_stats())} remain"
        )
        return True
    if head == ":segments":
        _print_segment_rows(engine.segment_stats(), with_shard=engine.num_shards > 1)
        return True
    return False


def _command_serve(args: argparse.Namespace) -> int:
    cache_size = args.cache_size if args.cache_size > 0 else None
    engine = _load_engine(args, cache_size=cache_size)
    interactive = sys.stdin.isatty()
    if interactive:  # pragma: no cover - exercised manually
        live_note = ", live" if getattr(args, "live", False) else ""
        print(
            f"repro serve: {engine.collection.name!r}, "
            f"{engine.num_shards} shard(s), scoring={args.scoring}, "
            f"cache={args.cache_size}{live_note}"
        )
        print("one query per line; ':stats' for statistics, ':quit' to exit")
        if engine.is_live:
            print(
                "live commands: ':add TEXT', ':update ID TEXT', ':delete ID', "
                "':flush', ':compact', ':segments'"
            )
    # The recorder keeps percentiles over a bounded window of recent
    # requests (the mean and count cover everything served); it is the same
    # accounting the HTTP server reports, so both frontends agree.
    recorder = LatencyRecorder()
    # The final summary must appear exactly once however the loop ends --
    # ':quit', stream EOF, Ctrl-C, or an unexpected error -- so it lives in
    # the finally block behind a once-guard.
    summary_printed = False

    def print_final_summary() -> None:
        nonlocal summary_printed
        if summary_printed:
            return
        summary_printed = True
        print()
        _print_serve_stats(engine, recorder)

    try:
        for line in sys.stdin:
            query = line.strip()
            if not query or query.startswith("#"):
                continue
            if query in (":quit", ":q", ":exit"):
                break
            if query in (":stats", ":cache"):
                _print_serve_stats(engine, recorder)
                continue
            if query.startswith(":") and engine.is_live:
                try:
                    if _serve_live_command(engine, query):
                        continue
                except ReproError as exc:
                    print(f"error: {exc}")
                    continue
            started = time.perf_counter()
            try:
                results = engine.search(
                    query, language=args.language, top_k=args.top_k
                )
            except ReproError as exc:
                print(f"error: {exc}")
                continue
            # Wall clock around the call, not results.elapsed_seconds: a
            # cache hit carries the *original* evaluation time, while the
            # request it served took microseconds.
            latency = (time.perf_counter() - started) * 1000.0
            recorder.record(latency)
            cache_note = ""
            if results.metadata.get("cache") == "hit":
                cache_note = f" [cached, {latency:.2f} ms]"
            print(f"> {results.summary()}{cache_note}")
            for rank, result in enumerate(results, start=1):
                print(
                    f"  {rank:2d}. node {result.node_id}  "
                    f"score={result.score:.4f}  {result.preview}"
                )
    except (KeyboardInterrupt, EOFError):  # pragma: no cover - interactive
        print()
    finally:
        print_final_summary()
        engine.close()
    return 0


def _print_serve_stats(engine: FullTextEngine, recorder: LatencyRecorder) -> None:
    snapshot = recorder.snapshot()
    print(
        f"served {snapshot['count']} queries over {engine.num_shards} "
        f"shard(s): {format_latency_summary(snapshot)}"
    )
    cache = engine.cache_stats()
    print(
        f"cache: size={cache['size']}/{cache['capacity']} "
        f"hits={cache['hits']} misses={cache['misses']} "
        f"hit_rate={cache['hit_rate'] * 100:.1f}% "
        f"evictions={cache['evictions']}"
    )


def _command_serve_http(args: argparse.Namespace) -> int:
    from repro.server import ServerConfig, serve

    cache_size = args.cache_size if args.cache_size > 0 else None
    path = Path(args.index_file)
    if path.is_dir():
        # A live data directory (as written by `repro ingest --data-dir`):
        # reopen it in place instead of loading a collection file.
        if args.shards > 1:
            print(
                "error: serving a live data directory does not support "
                "--shards > 1",
                file=sys.stderr,
            )
            return 1
        from repro.segments import LiveIndex

        live_options = {}
        if args.flush_threshold is not None:
            live_options["flush_threshold"] = args.flush_threshold
        engine = FullTextEngine(
            LiveIndex.open(path, **live_options),
            scoring=None if args.scoring == "none" else args.scoring,
            access_mode=args.access_mode,
            cache_size=cache_size,
            optimizer=args.optimizer,
        )
    else:
        engine = _load_engine(args, cache_size=cache_size)
    from repro.telemetry import ReopenableLog, install_sighup_reopen

    # File logs are SIGHUP-reopenable so logrotate works without dropped
    # lines; '-' and the default stay plain stderr.
    log_stream = None
    if args.access_log == "-":
        log_stream = sys.stderr
    elif args.access_log:
        log_stream = ReopenableLog(args.access_log)
    slow_stream = None
    if args.slow_query_log == "-":
        slow_stream = sys.stderr
    elif args.slow_query_log:
        slow_stream = ReopenableLog(args.slow_query_log)
    capture = None
    if args.capture:
        from repro.bench.capture import WorkloadCapture

        capture = WorkloadCapture(args.capture, sample=args.capture_sample)
    if log_stream is not None or slow_stream is not None:
        install_sighup_reopen()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch,
        max_linger_ms=max(args.linger_ms, 0.0),
        max_inflight=args.max_inflight,
        default_timeout_ms=args.timeout_ms,
        default_top_k=args.top_k,
        drain_grace_seconds=args.drain_grace,
        access_log=log_stream,
        slow_query_ms=args.slow_query_ms,
        slow_query_log=slow_stream,
        capture=capture,
    )
    try:
        return serve(engine, config)
    finally:
        engine.close()
        if capture is not None:
            capture.close()
            print(
                f"capture: {capture.recorded} record(s) written to "
                f"{capture.path}"
                + (
                    f" ({capture.skipped} sampled out)"
                    if capture.skipped
                    else ""
                ),
                flush=True,
            )
        for stream in (log_stream, slow_stream):
            if stream is not None and stream is not sys.stderr:
                stream.close()


def _command_doctor(args: argparse.Namespace) -> int:
    from repro.server.doctor import render_report, run_doctor

    host = args.host
    if host is None and args.port is not None:
        host = "127.0.0.1"
    results = run_doctor(args.index_path, host=host, port=args.port)
    print(render_report(results))
    return 1 if any(result.failed for result in results) else 0


def _print_figure3(scale: FigureScale) -> None:
    """Figure 3's analytic bounds on the collection Figures 5--8 measure."""
    params = InvertedIndex(scale.collection()).statistics.complexity_parameters()
    print("Figure 3: analytic complexity hierarchy")
    print(f"  data parameters : {params.as_dict()}")
    print("  query parameters: toks_Q=3, preds_Q=2, ops_Q=4")
    for name, bound in hierarchy_table(params, QueryParameters(3, 2, 4)):
        print(f"  {name:11}: {bound:,.0f} operations")


def _command_experiment(args: argparse.Namespace) -> int:
    scale = {
        "smoke": FigureScale.smoke,
        "laptop": FigureScale.laptop,
        "paper": FigureScale.paper,
    }[args.scale]()
    if args.figure == "3":
        _print_figure3(scale)
        return 0
    if args.figure == "all":
        _print_figure3(scale)
        print()
        tables = [
            *run_all(scale).values(),
            ablation_npred_orders(scale),
            ablation_scoring(scale),
        ]
        print(render_report(tables))
        return 0
    figure = ALL_FIGURES[f"figure{args.figure}"]
    table = figure(scale)
    print(table_to_text(table))
    summary = shape_summary(table)
    if summary:
        print()
        print("\n".join(summary))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
