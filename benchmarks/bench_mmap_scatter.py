"""Benchmark: packed mmap segments and multi-process vs in-process scatter.

Two measurements on the 12k-node synthetic corpus:

1. **Cold start** -- building an in-memory :class:`InvertedIndex` from the
   collection (every posting materialised as Python objects) vs opening the
   same index as a packed v4 file with :class:`PackedInvertedIndex.open`
   (magic + header only; columns stay on mmap'd pages until touched).
   Reported: wall-clock load time, resident-memory delta and the packed
   file size -- the packed path must not deserialise the payload.

2. **Scatter throughput** -- ``ScatterGatherExecutor`` with
   ``workers="thread"`` (shards evaluated one after another in the calling
   thread) vs ``workers="process"`` running the same no-cache batched BOOL
   workload at several shard counts.  One process has one GIL, so per-shard
   evaluation is serial; process workers evaluate truly in parallel
   against mmap'd spill files (pages shared via the OS cache) and ship back
   only exact best-k prefixes.  Expect the process pool to win at >= 4
   shards on a multi-core host; on a single-core host it can only lose
   (same serial compute plus IPC), which the report makes visible via the
   ``cpus`` line.

Every process-pool result is verified byte-identical (ids, scores, order)
to the in-process result before a row is reported -- the benchmark doubles
as an equivalence check at benchmark scale, like ``bench_topk.py``.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_mmap_scatter.py --nodes 12000

or at smoke scale (used by CI)::

    PYTHONPATH=src python benchmarks/bench_mmap_scatter.py --quick
"""

from __future__ import annotations

import argparse
import gc
import os
import tempfile
from pathlib import Path

from support import best_of

from repro.bench.workload import bool_query
from repro.cluster import ScatterGatherExecutor, ShardedIndex
from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS, generate_inex_like_collection
from repro.index.inverted_index import InvertedIndex
from repro.index.packed_index import PackedInvertedIndex, save_packed_index


def resident_bytes() -> int | None:
    """Current resident set size, or ``None`` when unavailable."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        # ru_maxrss is a high-water mark (kB on Linux) -- a usable fallback
        # for the "did we page the whole file in" question, not a live RSS.
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return None


def _fmt_bytes(value: int | None) -> str:
    if value is None:
        return "n/a"
    return f"{value / (1024 * 1024):.1f} MiB"


def build_queries() -> list[object]:
    """Broad batched BOOL shapes over the planted workload tokens."""
    planted = list(DEFAULT_QUERY_TOKENS[:4])
    dense = ["w00000", "w00001"]
    shapes = [
        planted[:2],
        planted[1:3],
        planted[:3],
        planted[2:4],
        dense,
        [planted[0], dense[0]],
    ]
    return [bool_query(tokens) for tokens in shapes]


def bench_cold_start(collection, spool: Path) -> dict[str, object]:
    """In-memory build vs packed mmap open (load time, RSS delta, size)."""
    gc.collect()
    rss_before_build = resident_bytes()

    def build() -> InvertedIndex:
        index = InvertedIndex(collection)
        index.posting_lists()  # materialise, as any query path would
        return index

    # Cold starts are one-shot by definition: a repeat would measure warm
    # page caches and interning, not the start-up cost being reported.
    build_seconds, memory_index = best_of(build, repeats=1, warmup=0)
    rss_after_build = resident_bytes()

    path = spool / "cold-start.seg"
    save_packed_index(memory_index, path)
    file_bytes = path.stat().st_size

    del memory_index
    gc.collect()
    rss_before_open = resident_bytes()
    open_seconds, packed_index = best_of(
        lambda: PackedInvertedIndex.open(path), repeats=1, warmup=0
    )
    rss_after_open = resident_bytes()
    packed_index.close()

    def _delta(before, after):
        if before is None or after is None:
            return None
        return max(0, after - before)

    return {
        "build_ms": build_seconds * 1e3,
        "open_ms": open_seconds * 1e3,
        "file_bytes": file_bytes,
        "build_rss_delta": _delta(rss_before_build, rss_after_build),
        "open_rss_delta": _delta(rss_before_open, rss_after_open),
    }


def _rows_of(results) -> list[tuple]:
    return [(tuple(r.node_ids), tuple(r.ranked())) for r in results]


def bench_scatter(
    collection, shard_counts, top_k: int, repeats: int, spool: Path
) -> list[dict[str, object]]:
    queries = build_queries()
    rows = []
    for shards in shard_counts:
        timings = {}
        reference_rows = None
        for workers in ("thread", "process"):
            kwargs = {"scoring": "tfidf", "cache_size": None}
            if workers == "process":
                kwargs.update(workers="process", spool_dir=spool / f"s{shards}")
            executor = ScatterGatherExecutor(
                ShardedIndex(collection, shards), **kwargs
            )
            try:
                # Warm-up: spill + pool spawn (process), caches and interning
                # (both).  Measures steady-state serving, not cold start.
                warm = executor.execute_many(queries, top_k=top_k)
                if reference_rows is None:
                    reference_rows = _rows_of(warm)
                elif _rows_of(warm) != reference_rows:
                    raise AssertionError(
                        f"process results diverge from thread results at "
                        f"{shards} shard(s)"
                    )
                best, _ = best_of(
                    lambda: executor.execute_many(queries, top_k=top_k), repeats
                )
                timings[workers] = best
            finally:
                executor.close()
        rows.append(
            {
                "shards": shards,
                "queries": len(queries),
                "thread_ms": timings["thread"] * 1e3,
                "process_ms": timings["process"] * 1e3,
                "speedup": timings["thread"] / max(timings["process"], 1e-12),
            }
        )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=12_000)
    parser.add_argument("--tokens-per-node", type=int, default=60)
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to measure (default: 1 2 4)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale (600 nodes, 2 repeats, shards 1 2)",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.repeats = 600, 2
        args.shards = [s for s in args.shards if s <= 2] or [1, 2]

    collection = generate_inex_like_collection(
        num_nodes=args.nodes, tokens_per_node=args.tokens_per_node,
        pos_per_entry=3,
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-mmap-") as tmp:
        spool = Path(tmp)
        cold = bench_cold_start(collection, spool)
        rows = bench_scatter(
            collection, args.shards, args.top_k, args.repeats, spool
        )

    print(
        f"mmap + process scatter benchmark: {args.nodes} nodes, "
        f"top_k={args.top_k}, best of {args.repeats}, "
        f"cpus={os.cpu_count()}"
    )
    print("\ncold start (in-memory build vs packed mmap open):")
    print(f"  in-memory build : {cold['build_ms']:>9.2f} ms  "
          f"(+{_fmt_bytes(cold['build_rss_delta'])} RSS)")
    print(f"  packed mmap open: {cold['open_ms']:>9.2f} ms  "
          f"(+{_fmt_bytes(cold['open_rss_delta'])} RSS, "
          f"file {_fmt_bytes(cold['file_bytes'])})")
    if cold["open_ms"] > 0:
        print(f"  open speedup    : {cold['build_ms'] / cold['open_ms']:>9.1f}x")

    print(
        f"\nno-cache batched BOOL scatter "
        f"({rows[0]['queries']} queries per batch):"
    )
    print(f"{'shards':>6} {'thread':>12} {'process':>12} {'speedup':>9}")
    for row in rows:
        print(
            f"{row['shards']:>6} {row['thread_ms']:>10.2f}ms "
            f"{row['process_ms']:>10.2f}ms {row['speedup']:>8.2f}x"
        )
    print(
        "\nthread    = shards evaluated one after another in the calling "
        "thread;\nprocess   = ProcessPoolExecutor over mmap'd packed "
        "spill files (results\n            verified byte-identical to the "
        "in-process path before reporting).\nspeedup > 1 needs real cores: on a "
        "single-cpu host the process pool pays\nIPC on top of the same "
        "serial compute and can only report < 1."
    )


if __name__ == "__main__":
    main()
