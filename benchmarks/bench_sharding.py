"""Benchmark: scatter-gather sharding + result caching vs the single index.

Runs a serving-style batch of BOOL conjunctions (a pool of distinct query
shapes drawn with an 80/20 skew, the way production query logs repeat) over
the synthetic corpus, single-index vs sharded at several shard counts, and
reports three things per shard count:

* **cold** -- scatter-gather with an empty result cache.  The gap to the
  single index is the pure sharding overhead (N small evaluations + one merge);
  per-query results are verified identical to the single-index answers.
* **warm** -- the same batch again with the cache populated.  Repeated query
  shapes are served straight from the LRU cache; this is where the batched
  speedup comes from and what the ``repro serve`` path exhibits.
* **balance** -- how evenly the partitioner spread the corpus.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sharding.py --nodes 12000

or at smoke scale (used by CI)::

    PYTHONPATH=src python benchmarks/bench_sharding.py --quick
"""

from __future__ import annotations

import argparse
import random

from support import best_of

from repro.bench.workload import bool_query
from repro.cluster import ShardedIndex, balance_report
from repro.core.engine import FullTextEngine
from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS, generate_inex_like_collection
from repro.index.inverted_index import InvertedIndex


def build_batch(
    num_queries: int, num_distinct: int, seed: int = 20060330
) -> list:
    """A batch of BOOL conjunctions with an 80/20 repetition skew.

    The distinct pool mixes rare planted tokens with dense Zipf-head
    background tokens (the zig-zag merge's two regimes); the batch then
    draws ~80% of its queries from the first ~20% of the pool.
    """
    rng = random.Random(seed)
    planted = list(DEFAULT_QUERY_TOKENS)
    common = [f"w{i:05d}" for i in range(8)]
    pool = []
    while len(pool) < num_distinct:
        width = rng.choice((2, 3))
        tokens = rng.sample(planted, min(width - 1, len(planted)))
        tokens.append(rng.choice(common))
        rng.shuffle(tokens)
        pool.append(bool_query(tokens))
    head = max(1, int(num_distinct * 0.2))
    batch = []
    for _ in range(num_queries):
        if rng.random() < 0.8:
            batch.append(pool[rng.randrange(head)])
        else:
            batch.append(pool[rng.randrange(num_distinct)])
    return batch


def _run_batch(engine: FullTextEngine, batch: list, top_k: int) -> tuple[float, list]:
    # One cold pass on purpose: repeating the batch would warm the caches
    # this benchmark separates into explicit cold/first/warm rows.
    return best_of(
        lambda: engine.search_many(batch, top_k=top_k), repeats=1, warmup=0
    )


def run(
    nodes: int,
    tokens_per_node: int,
    shard_counts: list[int],
    num_queries: int,
    num_distinct: int,
    top_k: int = 10,
    access_mode: str = "fast",
) -> list[dict[str, object]]:
    """Measure the batch under every shard count; returns one row per count."""
    collection = generate_inex_like_collection(
        num_nodes=nodes, tokens_per_node=tokens_per_node, pos_per_entry=3
    )
    batch = build_batch(num_queries, num_distinct)
    single = FullTextEngine.from_collection(
        collection, access_mode=access_mode, cache_size=None
    )
    _run_batch(single, batch, top_k)  # warm-up: decode caches, interning
    single_seconds, reference = _run_batch(single, batch, top_k)
    rows: list[dict[str, object]] = []
    for shards in shard_counts:
        # Two engines per shard count: one cache-less (to isolate the
        # scatter + merge overhead; a plain InvertedIndex at one shard,
        # i.e. the true single-index baseline), one cached (the serving
        # path; always a cluster, since the result cache lives there --
        # at one shard it is a one-shard cluster).
        sharded = ShardedIndex(collection, shards)
        nocache = FullTextEngine(
            sharded if shards > 1 else InvertedIndex(collection),
            access_mode=access_mode,
            cache_size=None,
        )
        cached = FullTextEngine(
            sharded, access_mode=access_mode, cache_size=max(num_distinct * 2, 16)
        )
        cold_seconds, cold_results = _run_batch(nocache, batch, top_k)
        for expected, got in zip(reference, cold_results):
            if expected.node_ids != got.node_ids:
                raise AssertionError(
                    f"sharded results diverge at {shards} shards for "
                    f"{expected.query_text!r}"
                )
        first_seconds, _ = _run_batch(cached, batch, top_k)
        warm_seconds, _ = _run_batch(cached, batch, top_k)
        cache = cached.cache_stats()
        balance = balance_report(row["nodes"] for row in cached.shard_stats())
        rows.append(
            {
                "shards": shards,
                "single_seconds": single_seconds,
                "cold_seconds": cold_seconds,
                "first_seconds": first_seconds,
                "warm_seconds": warm_seconds,
                "cold_speedup": single_seconds / max(cold_seconds, 1e-12),
                "first_speedup": single_seconds / max(first_seconds, 1e-12),
                "warm_speedup": single_seconds / max(warm_seconds, 1e-12),
                "merge_overhead_ms": max(0.0, cold_seconds - single_seconds) * 1e3,
                "hit_rate": cache["hit_rate"],
                "imbalance": balance["imbalance"],
            }
        )
        nocache.close()
        cached.close()
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=12_000)
    parser.add_argument("--tokens-per-node", type=int, default=60)
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8],
        help="shard counts to measure (default: 1 2 4 8)",
    )
    parser.add_argument("--queries", type=int, default=240, help="batch size")
    parser.add_argument(
        "--distinct", type=int, default=48, help="distinct query shapes in the pool"
    )
    parser.add_argument("--top-k", type=int, default=10)
    parser.add_argument(
        "--access-mode", default="fast", choices=["paper", "fast"]
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke scale (600 nodes, 60-query batch)",
    )
    args = parser.parse_args()
    if args.quick:
        args.nodes, args.queries, args.distinct = 600, 60, 12

    rows = run(
        args.nodes,
        args.tokens_per_node,
        args.shards,
        args.queries,
        args.distinct,
        args.top_k,
        args.access_mode,
    )
    print(
        f"sharding benchmark: {args.nodes} nodes, {args.queries}-query BOOL "
        f"batch ({args.distinct} distinct shapes), access mode {args.access_mode}"
    )
    print(
        f"{'shards':>6} {'single':>10} {'nocache':>10} {'1st':>10} {'warm':>10} "
        f"{'nocache x':>9} {'1st x':>7} {'warm x':>7} {'merge+':>8} {'hits':>6} {'imbal':>6}"
    )
    for row in rows:
        print(
            f"{row['shards']:>6} {row['single_seconds'] * 1e3:>8.1f}ms "
            f"{row['cold_seconds'] * 1e3:>8.1f}ms "
            f"{row['first_seconds'] * 1e3:>8.1f}ms "
            f"{row['warm_seconds'] * 1e3:>8.1f}ms "
            f"{row['cold_speedup']:>8.2f}x {row['first_speedup']:>6.2f}x "
            f"{row['warm_speedup']:>6.2f}x "
            f"{row['merge_overhead_ms']:>6.1f}ms "
            f"{row['hit_rate'] * 100:>5.1f}% {row['imbalance'] * 100:>5.1f}%"
        )
    print(
        "\nnocache = scatter-gather with caching disabled, every query "
        "evaluated\n          (the gap to single is the pure scatter + "
        "merge overhead);\n1st     = first pass with the LRU cache on "
        "(repeats inside the batch\n          are served from cache);\nwarm "
        "    = the same batch again, fully cache-resident -- the serving-"
        "\n          path number for a batched, repeating BOOL workload."
    )


if __name__ == "__main__":
    main()
