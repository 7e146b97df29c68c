"""The four workloads: inputs, set-up, verification and the measured pass.

Every workload follows the same contract (see :class:`Workload`): the op
stream is generated once from the seed, a *pass* executes that identical
stream once, and the run repeats passes.  What differs is which layers of
``src/repro`` do the work -- see README "Workloads".

All calls into the program go through its public entry points; the harness
keeps its own bookkeeping (expected results, id maps) outside the timed
region wherever it can, and a pass's result checks always run after the
pass's clock has stopped.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from collections import deque, namedtuple
from dataclasses import dataclass, field
from pathlib import Path

import inputs
from inputs import TOP_K

from repro.cluster.sharded_index import ShardedIndex
from repro.core.engine import FullTextEngine
from repro.corpus.collection import Collection
from repro.index.inverted_index import InvertedIndex
from repro.index.packed_index import open_packed_index, save_packed_index
from repro.index.storage import save_collection
from repro.segments import LiveIndex
from repro.telemetry import instruments

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: The configuration every workload's engine under test runs with.
ENGINE_OPTIONS = {"scoring": "tfidf", "access_mode": "fast", "optimizer": "on"}
#: The slow, simple configuration results are checked against.
REFERENCE_OPTIONS = {"scoring": "tfidf", "access_mode": "paper", "optimizer": "off"}


#: What one connection thread of http_hot brings back from a pass.
ClientRun = namedtuple("ClientRun", "started ended latencies answers starts")


class VerifyError(Exception):
    """The program's output differs from the reference: the run is void."""


@dataclass
class Pass:
    """What one pass over the op stream measured."""

    wall_s: float
    cpu_s: float
    latencies: list[float]
    failed: int
    #: Per-pass counts and timings a workload wants reported per layer.
    extra: dict = field(default_factory=dict)
    #: Calibration factor of this pass (set by run.py, see Calibrator).
    scale: float = 1.0


def fingerprint(results) -> tuple:
    """Everything a user can see of a ranked answer: the match count and the
    ranked (node id, score) pairs, compared exactly."""
    return (results.total_matches, tuple((r.node_id, r.score) for r in results.results))


def timer():
    started = time.perf_counter()
    return lambda: time.perf_counter() - started


def reference_engine(collection: Collection) -> FullTextEngine:
    return FullTextEngine(InvertedIndex(collection), **REFERENCE_OPTIONS)


def oracle_check(seed: int, queries: list[inputs.Query]) -> int:
    """Check the engine under test against the naive COMP engine (the
    materialising evaluation of the paper's calculus/algebra semantics) on a
    small collection from the same spec: one query per template.

    ``dist()`` templates are left out: the naive engine needs minutes for
    them even on 200 short nodes; they are still covered by the reference
    comparison.  Returns the number of queries checked.
    """
    corpus = inputs.make_corpus(seed, nodes=200, tokens_per_node=80)
    engine = FullTextEngine(
        InvertedIndex(corpus.collection), access_mode="fast", optimizer="on"
    )
    seen: set = set()
    for query in queries:
        shape = re.sub(r"q\d\d|\d+", "_", query.text)
        if shape in seen or query.text.startswith("dist("):
            continue
        seen.add(shape)
        fast = engine.search(query.text)
        naive = engine.search(query.text, engine="comp")
        if fast.node_ids != naive.node_ids:
            raise VerifyError(f"oracle mismatch on {query.text!r}")
    return len(seen)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Workload:
    """Base class: one fresh instance per run.

    Life cycle, driven by ``run.py``::

        __init__        generate inputs from the seed (untimed)
        reference()     expected results from the reference engine (untimed)
        setup()         build/persist/open/start + warm-up (timed; repeated,
                        each but the last followed by discard())
        verify()        one untimed pass: every result == reference, or
                        VerifyError
        run_pass()      one pass of the op stream  (repeated)
        finish(passes)  end-of-run checks; returns failures found
        close()         release everything, stop every child process
    """

    name = ""
    #: Label of each op's class, parallel to the op stream.
    kinds: list[str]
    stream_sha256: str
    text_bytes: int

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.setup_parts: dict[str, float] = {}
        self.stored_bytes = 0
        self.warm: Pass | None = None

    # -- hooks ---------------------------------------------------------------
    def reference(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        failed = self.warm.failed + self.run_pass().failed
        if failed:
            raise VerifyError(f"{self.name}: {failed} result(s) differ from the reference")

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def finish(self, passes: list[Pass]) -> int:
        return 0

    def close(self) -> None:
        self.discard()

    # -- the process under test ---------------------------------------------
    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- helpers -------------------------------------------------------------
    def _reference_results(self, texts: list[str], queries: list[inputs.Query]) -> list[tuple]:
        """Fingerprints of ``texts`` on the reference engine (+ the oracle
        check).  The generator's own collection is let go afterwards: the
        program builds its own from the texts, and harness data should not
        sit in the peak RSS of an in-process workload."""
        engine = reference_engine(self.corpus.collection)
        expected = [fingerprint(engine.search(text, top_k=TOP_K)) for text in texts]
        self.corpus.collection = None
        self.oracle_queries = oracle_check(self.seed, queries)
        return expected

    def _hash(self, corpus: inputs.Corpus, ops: list) -> str:
        corpus_digest = inputs.stream_hash(corpus.texts)
        return inputs.stream_hash([corpus_digest, ops])

    def _search_pass(self, engine: FullTextEngine, texts, expected) -> Pass:
        """Closed loop, one client: search every op, then check every result."""
        count = len(texts)
        latencies = [0.0] * count
        results: list = [None] * count
        search = engine.search
        clock = time.perf_counter
        cpu_started = self.cpu_seconds()
        started = clock()
        for i in range(count):
            op_started = clock()
            try:
                results[i] = search(texts[i], top_k=TOP_K)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                results[i] = exc
            latencies[i] = clock() - op_started
        wall = clock() - started
        cpu = self.cpu_seconds() - cpu_started
        failed = sum(
            1
            for result, want in zip(results, expected)
            if isinstance(result, Exception) or fingerprint(result) != want
        )
        return Pass(wall, cpu, latencies, failed)


# --------------------------------------------------------------------------
class StaticLibrary(Workload):
    """Shared life cycle of the two in-process, static-index workloads."""

    #: Extra ``FullTextEngine`` arguments on top of ENGINE_OPTIONS.
    engine_arguments: dict = {}
    #: Set-up warms the engine on this many ops from the head of the stream.
    warmup_ops: int
    engine = index = None

    def build_index(self, collection: Collection):
        raise NotImplementedError

    def packed_parts(self) -> list[InvertedIndex]:
        """The plain indexes that make up ``self.index`` (one file each)."""
        raise NotImplementedError

    def setup(self):
        parts = self.setup_parts = {}
        took = timer()
        collection = Collection.from_texts(self.corpus.texts, name="bench")
        parts["tokenize_s"] = took()
        took = timer()
        self.index = self.build_index(collection)
        parts["build_s"] = took()
        took = timer()
        paths = []
        for number, part in enumerate(self.packed_parts()):
            paths.append(self.workdir / f"part{number}.v4")
            save_packed_index(part, paths[-1])
        parts["packed_write_s"] = took()
        self.stored_bytes = sum(path.stat().st_size for path in paths)
        took = timer()
        for path in paths:
            open_packed_index(path).close()
        parts["packed_open_s"] = took()
        took = timer()
        self.index.statistics  # noqa: B018 - forces the lazy statistics build
        parts["stats_build_s"] = took()
        took = timer()
        self.engine = FullTextEngine(self.index, **self.engine_arguments, **ENGINE_OPTIONS)
        parts["engine_start_s"] = took()
        warm = self.warmup_ops
        self.warm = self._search_pass(self.engine, self.texts[:warm], self.expected[:warm])
        parts["warmup_s"] = self.warm.wall_s

    def verify(self):
        super().verify()
        # A persisted copy (what stored_bytes_ratio is the size of) must
        # answer like the index it was written from.  One part, unscored and
        # closed again: the check must not leave a second statistics build or
        # mapped files in the peak RSS of the process under test.
        options = {"access_mode": "fast", "optimizer": "on"}
        with open_packed_index(self.workdir / "part0.v4") as reopened:
            packed = FullTextEngine(reopened, **options)
            memory = FullTextEngine(self.packed_parts()[0], **options)
            for text in self.texts[:10]:
                if packed.search(text).node_ids != memory.search(text).node_ids:
                    raise VerifyError(f"packed index differs on {text!r}")

    def run_pass(self):
        return self._search_pass(self.engine, self.texts, self.expected)

    def discard(self):
        if self.engine is not None:
            self.engine.close()
        self.engine = self.index = self.warm = None
        for path in self.workdir.glob("part*.v4"):
            path.unlink()
        gc.collect()


class LibMixed(StaticLibrary):
    """In-process search on one index; every query distinct; no result cache."""

    name = "lib_mixed"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.nodes, ops = (150, 60) if smoke else (1000, 600)
        self.warmup_ops = ops
        self.corpus = inputs.make_corpus(seed, self.nodes)
        self.queries = inputs.make_queries(random.Random(seed + 1), ops)
        self.texts = [q.text for q in self.queries]
        self.kinds = [q.cls for q in self.queries]
        self.stream_sha256 = self._hash(self.corpus, self.texts)
        self.text_bytes = self.corpus.text_bytes

    def reference(self):
        self.expected = self._reference_results(self.texts, self.queries)

    def build_index(self, collection):
        return InvertedIndex(collection)

    def packed_parts(self):
        return [self.index]


class LibShardedZipf(StaticLibrary):
    """4-shard scatter-gather behind an LRU result cache smaller than the
    Zipf-distributed working set (one client, so hits are deterministic)."""

    name = "lib_sharded_zipf"
    SHARDS = 4
    CACHE_SIZE = 128
    POOL = 512
    #: BOOL only: a miss then costs little in the engine, so what the
    #: workload feels is the cache, the scatter and the merge.
    POOL_MIX = (("bool", 1.0),)
    ZIPF_EXPONENT = 1.1
    engine_arguments = {"max_workers": 2, "cache_size": CACHE_SIZE}

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.nodes, ops = (150, 300) if smoke else (1000, 6000)
        self.warmup_ops = ops // 10
        rng = random.Random(seed + 2)
        self.corpus = inputs.make_corpus(seed, self.nodes)
        self.pool = inputs.make_queries(rng, self.POOL, mix=self.POOL_MIX)
        self.draws = inputs.zipf_draws(rng, self.POOL, ops, self.ZIPF_EXPONENT)
        self.texts = [
            self.pool[d].commuted if rng.random() < 0.5 else self.pool[d].text
            for d in self.draws
        ]
        self.kinds = [self.pool[d].cls for d in self.draws]
        self.stream_sha256 = self._hash(self.corpus, self.texts)
        self.text_bytes = self.corpus.text_bytes

    def reference(self):
        drawn = sorted(set(self.draws))
        results = self._reference_results([self.pool[d].text for d in drawn], self.pool)
        by_pool = dict(zip(drawn, results))
        self.expected = [by_pool[d] for d in self.draws]

    def build_index(self, collection):
        return ShardedIndex(collection, self.SHARDS, "hash")

    def packed_parts(self):
        return [shard.index for shard in self.index.shards]

    def run_pass(self):
        before = self.engine.cache_stats()
        result = super().run_pass()
        after = self.engine.cache_stats()
        result.extra["cache"] = {
            key: after[key] - before[key] for key in ("hits", "misses", "evictions")
        }
        return result


# --------------------------------------------------------------------------
class HttpHot(Workload):
    """``python -m repro serve-http`` as a child process; two keep-alive
    connections; a hot set that fits the server's result cache."""

    name = "http_hot"
    CONNECTIONS = 2
    HOT = 64
    CACHE_SIZE = 128
    #: The /health loop must sustain this multiple of the /search rate.
    GENERATOR_HEADROOM = 3.0
    HEALTH_REQUESTS = 2000

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.nodes, ops = (100, 200) if smoke else (600, 4000)
        rng = random.Random(seed + 3)
        self.corpus = inputs.make_corpus(seed, self.nodes)
        self.hot = inputs.make_queries(rng, self.HOT)
        per_connection = ops // self.CONNECTIONS
        self.streams = []  # per connection: [(hot index, request path)]
        for _ in range(self.CONNECTIONS):
            stream = []
            for _ in range(per_connection):
                h = rng.randrange(self.HOT)
                text = self.hot[h].commuted if rng.random() < 0.5 else self.hot[h].text
                stream.append((h, self._path(text)))
            self.streams.append(stream)
        self.kinds = [self.hot[h].cls for stream in self.streams for h, _ in stream]
        self.stream_sha256 = self._hash(
            self.corpus, [[p for _, p in stream] for stream in self.streams]
        )
        self.text_bytes = self.corpus.text_bytes
        self.server = None
        self.connections: list[http.client.HTTPConnection] = []

    @staticmethod
    def _path(text: str) -> str:
        return "/search?" + urllib.parse.urlencode({"q": text, "top_k": TOP_K})

    def reference(self):
        self.expected_hot = self._reference_results([q.text for q in self.hot], self.hot)

    # -- the child process ----------------------------------------------------
    def _start_server(self, collection_path: Path) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC_DIR))
        self.server_log = open(self.workdir / "server.out", "w+")
        self.server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve-http", str(collection_path),
                "--port", "0", "--cache-size", str(self.CACHE_SIZE),
                "--scoring", ENGINE_OPTIONS["scoring"],
                "--access-mode", ENGINE_OPTIONS["access_mode"],
                "--optimizer", ENGINE_OPTIONS["optimizer"],
            ],
            env=env, stdout=self.server_log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 120
        while True:
            self.server_log.seek(0)
            match = re.search(r" on 127\.0\.0\.1:(\d+) ", self.server_log.read())
            if match:
                self.port = int(match.group(1))
                return
            if self.server.poll() is not None or time.monotonic() > deadline:
                self._stop_server()
                raise VerifyError("serve-http did not start; see server.out")
            time.sleep(0.005)

    def _stop_server(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if self.server is not None:
            if self.server.poll() is None:
                self.server.send_signal(signal.SIGTERM)
                try:
                    self.server.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.server.kill()
                    self.server.wait()
            self.server_log.close()
            self.server = None

    def _get(self, connection, path):
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> dict:
        status, body = self._get(self.connections[0], path)
        if status != 200:
            raise VerifyError(f"GET {path} answered {status}")
        return json.loads(body)

    def cpu_seconds(self) -> float:
        """CPU of the *server* process, all threads (the load generator's
        own CPU is reported separately as bench.generator_cpu_share)."""
        total = 0
        task_dir = f"/proc/{self.server.pid}/task"
        try:
            for task in os.listdir(task_dir):
                with open(f"{task_dir}/{task}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            if total:
                return total / 1e9
        except (OSError, ValueError, IndexError):
            pass
        with open(f"/proc/{self.server.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as handle:
            match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        return int(match.group(1)) / 1024.0

    # -- life cycle -----------------------------------------------------------
    def setup(self):
        parts = self.setup_parts = {}
        took = timer()
        collection = Collection.from_texts(self.corpus.texts, name="bench")
        parts["tokenize_s"] = took()
        path = self.workdir / "collection.json"
        took = timer()
        save_collection(collection, path)
        parts["save_collection_s"] = took()
        self.stored_bytes = path.stat().st_size
        del collection
        took = timer()
        self._start_server(path)
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            for _ in range(self.CONNECTIONS)
        ]
        self.get_json("/health")
        parts["server_start_s"] = took()
        # Warm-up: one request per hot query fills the server's result cache.
        took = timer()
        fill_failed = 0
        for query, want in zip(self.hot, self.expected_hot):
            status, body = self._get(self.connections[0], self._path(query.text))
            fill_failed += status != 200 or self._payload_fingerprint(body) != want
        parts["warmup_s"] = took()
        self.warm = Pass(parts["warmup_s"], 0.0, [], fill_failed)

    @staticmethod
    def _payload_fingerprint(body: bytes) -> tuple:
        payload = json.loads(body)
        return (
            payload["total_matches"],
            tuple((r["node_id"], r["score"]) for r in payload["results"]),
        )

    def _client(self, which, barrier, out):
        connection = self.connections[which]
        stream = self.streams[which]
        latencies = [0.0] * len(stream)
        starts = [0.0] * len(stream)
        answers: list = [None] * len(stream)
        clock = time.perf_counter
        barrier.wait()
        started = clock()
        for i, (_hot, path) in enumerate(stream):
            starts[i] = op_started = clock()
            try:
                connection.request("GET", path)
                response = connection.getresponse()
                answers[i] = (response.status, response.read())
            except (OSError, http.client.HTTPException) as exc:
                answers[i] = (0, repr(exc).encode())
                connection.close()
            latencies[i] = clock() - op_started
        out[which] = ClientRun(started, clock(), latencies, answers, starts)

    def _threads_pass(self, target) -> list:
        barrier = threading.Barrier(self.CONNECTIONS)
        out: list = [None] * self.CONNECTIONS
        threads = [
            threading.Thread(target=target, args=(which, barrier, out))
            for which in range(self.CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return out

    def run_pass(self):
        client_cpu_started = time.process_time()
        cpu_started = self.cpu_seconds()
        out = self._threads_pass(self._client)
        cpu = self.cpu_seconds() - cpu_started
        client_cpu = time.process_time() - client_cpu_started
        wall = max(o.ended for o in out) - min(o.started for o in out)
        latencies = [lat for o in out for lat in o.latencies]
        failed = 0
        for stream, o in zip(self.streams, out):
            for (hot, _path), (status, body) in zip(stream, o.answers):
                if status != 200 or self._payload_fingerprint(body) != self.expected_hot[hot]:
                    failed += 1
        return Pass(wall, cpu, latencies, failed, {"client_cpu_s": client_cpu})

    def _health_client(self, which, barrier, out):
        connection = self.connections[which]
        barrier.wait()
        started = time.perf_counter()
        for _ in range(self.HEALTH_REQUESTS):
            connection.request("GET", "/health")
            connection.getresponse().read()
        out[which] = ClientRun(started, time.perf_counter(), [], [], [])

    def finish(self, passes):
        by_status = self.get_json("/stats")["server"]["requests"]["by_status"]
        failed = sum(count for status, count in by_status.items() if status != "200")
        # Generator-health guard: the numbers are the server's only if this
        # client, on the same connections and at the same moment, can drive a
        # request that costs the server almost nothing much faster.  Raw rates
        # on both sides; best of three, because the question is the client's
        # ceiling, not a noisy moment.
        health_rate = 0.0
        for _ in range(3):
            out = self._threads_pass(self._health_client)
            wall = max(o.ended for o in out) - min(o.started for o in out)
            health_rate = max(health_rate, self.CONNECTIONS * self.HEALTH_REQUESTS / wall)
        search_rate = statistics.median(len(p.latencies) / p.wall_s for p in passes)
        print(f"# generator health: /health {health_rate:.0f}/s, "
              f"/search {search_rate:.0f}/s", flush=True)
        if health_rate < self.GENERATOR_HEADROOM * search_rate:
            print(f"# load generator too slow (under {self.GENERATOR_HEADROOM:g}x): "
                  "every op of the run counts as failed", flush=True)
            failed += sum(len(p.latencies) for p in passes)
        return failed

    def discard(self):
        self._stop_server()
        (self.workdir / "collection.json").unlink(missing_ok=True)
        self.warm = None


# --------------------------------------------------------------------------
class LiveRw(Workload):
    """A live (WAL + memtable + segments) index: writes beside reads.

    One *cycle* is 4 writes (1 add, 2 updates, 1 delete) then 6 reads
    (BOOL and PPRED alternating); the first read after the writes pays the
    statistics refresh.  The write
    stream is built so the logical corpus at op ``i`` is the same in every
    pass (see README "live_rw: a write stream that repeats"), which is what
    lets every pass be checked against one set of expected results:

    * the last CHURN base documents hold the *pool* texts; cycle ``c`` adds
      pool text ``c`` again under a new id and deletes the oldest pool
      document (which held that same text);
    * documents in two TOGGLE-sized groups are updated to an alternative text
      in the first half of a pass and back to their base text in the second.

    Node ids of pool documents differ from pass to pass, so results are
    compared on *logical* ids (pool slot instead of node id).
    """

    name = "live_rw"
    READS_PER_CYCLE = 6

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        nodes, self.cycles, self.flush_threshold = (80, 12, 12) if smoke else (160, 60, 30)
        self.compact_every = self.cycles // 3
        self.churn = self.cycles
        self.toggle = self.cycles // 2
        rng = random.Random(seed + 4)
        corpus = inputs.make_corpus(seed, nodes + 2 * self.toggle)
        self.base_texts = corpus.texts[:nodes]
        self.alt_texts = corpus.texts[nodes:]
        self.base_collection = Collection.from_nodes(
            [corpus.collection.get(i) for i in range(nodes)], "bench"
        )
        self.nodes = nodes
        # Reads alternate BOOL, PPRED, BOOL, ... within a cycle, so the read
        # that follows the writes is a BOOL query in every cycle of every
        # seed: the p95 class holds one query class, not a seed-drawn blend.
        half = self.cycles * self.READS_PER_CYCLE // 2
        bools = inputs.make_queries(rng, half, mix=(("bool", 1.0),))
        ppreds = inputs.make_queries(rng, half, mix=(("ppred", 1.0),))
        self.reads = [query for pair in zip(bools, ppreds) for query in pair]
        # The op stream: (kind, argument).  Arguments are indexes into the
        # text tables / the read list; the concrete node ids are resolved
        # while the pass runs (they depend on the ids the program assigns).
        self.ops: list[tuple[str, int]] = []
        for cycle in range(self.cycles):
            first_half = cycle < self.toggle
            slot = cycle % self.toggle
            self.ops += [
                ("add", cycle),
                ("update_alt" if first_half else "update_base", slot),
                ("update_alt" if first_half else "update_base", self.toggle + slot),
                ("delete", cycle),
            ]
            for r in range(self.READS_PER_CYCLE):
                kind = "read_after_write" if r == 0 else "read"
                self.ops.append((kind, cycle * self.READS_PER_CYCLE + r))
            if (cycle + 1) % self.compact_every == 0:
                self.ops.append(("compact", 0))
        self.kinds = [kind for kind, _ in self.ops if kind != "compact"]
        self.stream_sha256 = self._hash(
            corpus,
            [[k, self.reads[a].text if k.startswith("read") else a] for k, a in self.ops],
        )
        # User bytes written per pass and at rest.
        self.text_bytes = sum(len(t.encode()) for t in self.base_texts)
        pool_start = nodes - self.churn
        self.pass_write_bytes = sum(
            len(self.base_texts[pool_start + c].encode()) for c in range(self.cycles)
        ) + sum(len(t.encode()) for t in self.alt_texts + self.base_texts[: 2 * self.toggle])
        self.engine = None
        self.live_dir = workdir / "live"

    # -- executing the stream -------------------------------------------------
    def _fresh_state(self):
        pool_start = self.nodes - self.churn
        self.pool_ids = deque(range(pool_start, self.nodes))
        self.logical = {pool_start + c: ("pool", c) for c in range(self.churn)}

    def _logical_fingerprint(self, results) -> tuple:
        logical = self.logical
        return (
            results.total_matches,
            tuple((logical.get(r.node_id, r.node_id), r.score) for r in results.results),
        )

    def _run_stream(self, engine, on_op=None) -> Pass:
        """Execute one pass on ``engine``; returns latencies per op (compactions
        are timed into ``extra``, not into the latency distribution)."""
        pool_start = self.nodes - self.churn
        base, alt, reads = self.base_texts, self.alt_texts, self.reads
        latencies: list[float] = []
        answers: list = []
        compactions: list[float] = []
        clock = time.perf_counter
        seals_before = instruments.MEMTABLE_SEALS_TOTAL.value()
        merges_before = instruments.COMPACTIONS_TOTAL.value()
        cpu_started = self.cpu_seconds()
        started = clock()
        for index, (kind, arg) in enumerate(self.ops):
            op_started = clock()
            try:
                if kind == "add":
                    answer = engine.add_document(base[pool_start + arg])
                elif kind == "update_alt":
                    answer = engine.update_document(arg, alt[arg])
                elif kind == "update_base":
                    answer = engine.update_document(arg, base[arg])
                elif kind == "delete":
                    answer = engine.delete_document(self.pool_ids[0])
                elif kind == "compact":
                    answer = engine.compact()
                else:
                    answer = engine.search(reads[arg].text, top_k=TOP_K)
            except Exception as exc:  # noqa: BLE001 - a failed op is data
                answer = exc
            elapsed = clock() - op_started
            # Bookkeeping the next ops depend on (outside the op's own clock).
            if kind == "add" and not isinstance(answer, Exception):
                self.pool_ids.append(answer)
                self.logical[answer] = ("pool", arg)
            elif kind == "delete":
                self.logical.pop(self.pool_ids.popleft(), None)
            elif kind.startswith("read") and not isinstance(answer, Exception):
                answer = self._logical_fingerprint(answer)
            if kind == "compact":
                compactions.append(elapsed)
            else:
                latencies.append(elapsed)
                answers.append(answer)
            if on_op is not None:
                on_op(index, kind, arg, op_started, op_started + elapsed)
        wall = clock() - started
        cpu = self.cpu_seconds() - cpu_started
        extra = {
            "answers": answers,
            "compact_s": compactions,
            "seals": instruments.MEMTABLE_SEALS_TOTAL.value() - seals_before,
            "compactions": instruments.COMPACTIONS_TOTAL.value() - merges_before,
        }
        return Pass(wall, cpu, latencies, 0, extra)

    def _count_failures(self, result: Pass) -> Pass:
        failed = 0
        for kind, answer, want in zip(self.kinds, result.extra["answers"], self.expected):
            if isinstance(answer, Exception):
                failed += 1
            elif kind == "delete":
                failed += answer is not True
            elif kind.startswith("read"):
                failed += answer != want
        result.failed = failed
        return result

    def reference(self):
        """One pass on an in-memory live index in the reference configuration
        gives the expected (logical) result of every read."""
        engine = FullTextEngine(
            LiveIndex(self.base_collection, flush_threshold=self.flush_threshold),
            **REFERENCE_OPTIONS,
        )
        self._fresh_state()
        self.expected = self._run_stream(engine).extra["answers"]
        engine.close()
        self.base_collection = None
        self.oracle_queries = oracle_check(self.seed, self.reads)

    def _open(self) -> FullTextEngine:
        return FullTextEngine(
            LiveIndex.open(self.live_dir, flush_threshold=self.flush_threshold),
            **ENGINE_OPTIONS,
        )

    def setup(self):
        parts = self.setup_parts = {}
        took = timer()
        collection = Collection.from_texts(self.base_texts, name="bench")
        parts["tokenize_s"] = took()
        took = timer()
        engine = FullTextEngine.from_collection(
            collection,
            live=True,
            live_dir=self.live_dir,
            flush_threshold=self.flush_threshold,
            **ENGINE_OPTIONS,
        )
        parts["build_s"] = took()
        engine.close()
        took = timer()
        self.engine = self._open()
        parts["reopen_s"] = took()
        self._fresh_state()
        self.warm = self.run_pass()
        parts["warmup_s"] = self.warm.wall_s
        self.stored_bytes = dir_bytes(self.live_dir)

    def run_pass(self):
        return self._count_failures(self._run_stream(self.engine))

    def finish(self, passes):
        """close -> reopen -> re-query: the recovered index must answer like
        a fresh static index over the surviving documents."""
        self.engine.close()
        took = timer()
        self.engine = self._open()
        self.reopen_s = took()
        survivors = Collection.from_nodes(list(self.engine.collection), "survivors")
        rebuilt = reference_engine(survivors)
        failed = 0
        for query in self.reads:
            got = fingerprint(self.engine.search(query.text, top_k=TOP_K))
            failed += got != fingerprint(rebuilt.search(query.text, top_k=TOP_K))
        return failed

    def discard(self):
        if self.engine is not None:
            self.engine.close()
        self.engine = self.warm = None
        shutil.rmtree(self.live_dir, ignore_errors=True)
        gc.collect()


WORKLOADS = {cls.name: cls for cls in (LibMixed, LibShardedZipf, HttpHot, LiveRw)}
