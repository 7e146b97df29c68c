"""End-to-end tests: real sockets, real HTTP clients, real engine.

These pin the satellite guarantees: concurrent batched answers bit-identical
to direct ``engine.search``, deadline errors that leave the connection loop
alive, admission control under overload, ``/stats`` serving exactly what
``repro stats`` prints, and graceful drain of in-flight work.
"""

from __future__ import annotations

import concurrent.futures
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.engine import FullTextEngine
from repro.core.query import parse_query
from repro.corpus.synthetic import DEFAULT_QUERY_TOKENS
from repro.index.storage import load_collection, save_collection
from repro.model.calculus import CalculusEvaluator
from repro.server import ServerConfig

from harness import RunningServer, make_engine

QUERIES = [
    ("'usability'", 3),
    ("'usability' AND 'software'", 5),
    ("'testing' OR 'efficient'", 2),
    ("dist('usability', 'software', 8)", 4),
    ("'interface' AND ('evaluation' OR 'usability')", 5),
    ("'software' OR 'testing'", 1),
]


@pytest.fixture(scope="module")
def engine(server_collection):
    engine = make_engine(server_collection)
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def running(engine):
    config = ServerConfig(max_linger_ms=25.0)  # generous: force coalescing
    with RunningServer(engine, config) as server:
        yield server


def served_key(payload: dict) -> list[tuple[int, float]]:
    return [(row["node_id"], row["score"]) for row in payload["results"]]


def direct_key(results) -> list[tuple[int, float]]:
    # json round-trips floats through repr, which is exact for Python floats,
    # so comparing the parsed values IS a bit-identical score comparison.
    return [
        (result.node_id, json.loads(json.dumps(result.score)))
        for result in results
    ]


# --------------------------------------------------------------- equivalence
def test_concurrent_batched_results_bit_identical_to_direct_search(
    running, engine
):
    """Many clients at once; every answer equals a direct engine.search."""
    jobs = QUERIES * 3

    def fetch(job):
        text, top_k = job
        return running.request(
            "POST", "/search", body={"q": text, "top_k": top_k}
        )

    with concurrent.futures.ThreadPoolExecutor(max_workers=len(jobs)) as pool:
        responses = list(pool.map(fetch, jobs))

    for (text, top_k), (status, payload) in zip(jobs, responses):
        assert status == 200, payload
        assert payload["results"], text  # planted tokens: never empty
        direct = engine.search(text, top_k=top_k)
        assert served_key(payload) == direct_key(direct), text
        assert payload["total_matches"] == direct.total_matches
        assert payload["top_k"] == top_k

    # The 25 ms linger must have coalesced at least some of the burst.
    _, stats = running.request("GET", "/stats")
    batching = stats["server"]["batching"]
    assert batching["batched_requests"] >= len(jobs)
    assert batching["max_batch_size_seen"] >= 2


def test_get_and_post_agree(running):
    status_get, via_get = running.request(
        "GET", "/search?q=%27usability%27%20AND%20%27software%27&top_k=4"
    )
    status_post, via_post = running.request(
        "POST", "/search", body={"q": "'usability' AND 'software'", "top_k": 4}
    )
    assert status_get == status_post == 200
    assert served_key(via_get) == served_key(via_post)


def test_search_payload_reports_engine_and_language(running):
    status, payload = running.request(
        "POST", "/search", body={"q": "'usability'", "top_k": 2}
    )
    assert status == 200
    assert payload["language_class"].startswith("BOOL")
    assert payload["engine"] in ("bool", "ppred")
    assert payload["elapsed_ms"] >= 0.0
    for row in payload["results"]:
        assert set(row) == {"node_id", "score", "preview"}


# ------------------------------------------------- error paths, keep-alive
def test_bad_query_is_400_and_connection_survives(running):
    conn = running.connect()
    try:
        status, payload = running.request(
            "POST", "/search", body={"q": "'unterminated"}, connection=conn
        )
        assert status == 400
        assert payload["error"]["code"] == "query_error"
        # Same socket, next request: the connection loop must still be alive.
        status, payload = running.request(
            "POST", "/search", body={"q": "'usability'", "top_k": 1}, connection=conn
        )
        assert status == 200
    finally:
        conn.close()


def test_validation_errors_are_400(running):
    for body in [
        {},  # missing q
        {"q": "'usability'", "top_k": 0},
        {"q": "'usability'", "top_k": "many"},
        {"q": "'usability'", "top_k": 10**9},  # above max_top_k
        {"q": "'usability'", "language": "sql"},
        {"q": "'usability'", "engine": "warp"},
        {"q": "'usability'", "timeout_ms": -5},
    ]:
        status, payload = running.request("POST", "/search", body=body)
        assert status == 400, body
        assert "error" in payload


def test_unknown_route_404_and_wrong_method_405(running):
    status, payload = running.request("GET", "/nope")
    assert status == 404
    status, payload = running.request("POST", "/health")
    assert status == 405


def test_health_reports_version_and_collection(running, engine):
    status, payload = running.request("GET", "/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["version"] == repro.__version__
    assert payload["collection"] == engine.collection.name
    assert payload["shards"] == 1


# ------------------------------------------------------------------ deadlines
class SlowEngine:
    """Delegate to a real engine, but sleep inside every evaluation."""

    def __init__(self, inner, delay_seconds: float) -> None:
        self._inner = inner
        self._delay = delay_seconds

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def search(self, query, **kwargs):
        time.sleep(self._delay)
        return self._inner.search(query, **kwargs)


def test_deadline_exceeded_is_504_and_connection_survives(server_collection):
    inner = make_engine(server_collection)
    try:
        slow = SlowEngine(inner, delay_seconds=0.4)
        with RunningServer(slow, ServerConfig()) as server:
            conn = server.connect()
            try:
                status, payload = server.request(
                    "POST",
                    "/search",
                    body={"q": "'usability'", "timeout_ms": 50},
                    connection=conn,
                )
                assert status == 504
                assert payload["error"]["code"] == "deadline_exceeded"
                # The same keep-alive socket must answer the next request
                # even though the slow evaluation is still in flight.
                status, payload = server.request(
                    "GET", "/health", connection=conn
                )
                assert status == 200
            finally:
                conn.close()
    finally:
        inner.close()


def test_a_comp_query_is_answered_within_its_deadline(server_collection):
    """COMP runs the calculus: the witness fits a 1 s deadline, BOOL follows."""
    first, second = DEFAULT_QUERY_TOKENS[:2]
    witness = (
        f"SOME p1 SOME p2 (p1 HAS '{first}' AND p2 HAS '{second}' "
        "AND NOT distance(p1, p2, 3))"
    )
    expected = CalculusEvaluator().evaluate_query(
        parse_query(witness).to_calculus(), server_collection
    )
    engine = make_engine(server_collection)
    try:
        with RunningServer(engine, ServerConfig()) as server:
            status, payload = server.request(
                "POST",
                "/search",
                body={"q": witness, "top_k": 1000, "timeout_ms": 1000},
            )
            assert status == 200, payload
            assert payload["engine"] == "comp"
            assert sorted(row["node_id"] for row in payload["results"]) == expected
            assert payload["total_matches"] == len(expected) > 0
            status, payload = server.request(
                "POST", "/search", body={"q": f"'{first}'", "timeout_ms": 1000}
            )
            assert status == 200, payload
    finally:
        engine.close()


# ----------------------------------------------------------------- admission
def test_admission_control_returns_429_under_overload(server_collection):
    inner = make_engine(server_collection)
    try:
        slow = SlowEngine(inner, delay_seconds=0.8)
        config = ServerConfig(max_inflight=1, max_linger_ms=0.0)
        with RunningServer(slow, config) as server:
            with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(
                    server.request, "POST", "/search", {"q": "'usability'"}
                )
                time.sleep(0.25)  # let the first request occupy the slot
                status, payload = server.request(
                    "POST", "/search", body={"q": "'software'"}
                )
                assert status == 429
                assert payload["error"]["code"] == "overloaded"
                status, _ = first.result(timeout=30)
                assert status == 200  # the admitted request still completes
            # The refusal is immediate and the socket is answered, never hung.
            _, stats = server.request("GET", "/stats")
            assert stats["server"]["requests"]["by_status"]["429"] == 1
    finally:
        inner.close()


# -------------------------------------------------------------- observability
def test_stats_latency_and_access_log(server_collection):
    engine = make_engine(server_collection)
    log = io.StringIO()
    try:
        with RunningServer(engine, ServerConfig(access_log=log)) as server:
            for _ in range(3):
                server.request("POST", "/search", body={"q": "'usability'"})
            status, stats = server.request("GET", "/stats")
        assert status == 200
        search_latency = stats["server"]["latency"]["/search"]
        assert search_latency["count"] == 3
        assert search_latency["p50_ms"] > 0.0
        assert stats["server"]["requests"]["total"] >= 3
        assert stats["version"] == repro.__version__
        # JSONL access log: one valid JSON object per request, in order.
        lines = [line for line in log.getvalue().splitlines() if line]
        assert len(lines) >= 4  # 3 searches + /stats itself may lag a line
        entry = json.loads(lines[0])
        assert entry["method"] == "POST"
        assert entry["path"] == "/search"
        assert entry["status"] == 200
        assert entry["latency_ms"] >= 0.0
    finally:
        engine.close()


def test_stats_cli_prints_the_served_engine_payload(
    server_collection, tmp_path, capsys
):
    """``repro stats FILE`` and ``/stats["engine"]`` are one payload."""
    saved = tmp_path / "collection.json"
    save_collection(server_collection, saved)
    engine = FullTextEngine.from_collection(load_collection(saved), shards=2)
    try:
        with RunningServer(engine, ServerConfig()) as server:
            _, stats = server.request("GET", "/stats")
    finally:
        engine.close()

    assert main(["stats", str(saved), "--shards", "2"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == stats["engine"]
    assert printed["shards"] == 2
    assert printed["packed_bytes_estimate"] > 0


# -------------------------------------------------------------- graceful drain
def test_shutdown_drains_inflight_request(server_collection):
    inner = make_engine(server_collection)
    try:
        slow = SlowEngine(inner, delay_seconds=0.5)
        server = RunningServer(slow, ServerConfig(max_linger_ms=0.0))
        with server:
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(
                    server.request, "POST", "/search", {"q": "'usability'", "top_k": 2}
                )
                time.sleep(0.2)  # request is now on the engine thread
                server.shutdown()  # returns only once drained
                status, payload = inflight.result(timeout=30)
        # The in-flight request was answered, not cut.
        assert status == 200
        assert payload["results"]
    finally:
        inner.close()


def test_serve_http_subprocess_sigterm_exits_zero(server_collection, tmp_path):
    """The deployable artifact contract: SIGTERM => drain, report, exit 0."""
    saved = tmp_path / "collection.json"
    save_collection(server_collection, saved)
    log_path = tmp_path / "access.jsonl"
    repo_src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONPATH=repo_src, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
            "serve-http",
            str(saved),
            "--port",
            "0",
            "--access-log",
            str(log_path),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r" on [\d.]+:(\d+) ", banner)
        assert match, f"unexpected banner: {banner!r}"
        port = int(match.group(1))

        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        conn.request("GET", "/search?q=%27usability%27&top_k=2")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 200
        assert body["results"]

        proc.send_signal(signal.SIGTERM)
        stdout, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "drained; served" in stdout
    entries = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line.strip()
    ]
    assert any(entry["path"] == "/search" for entry in entries)


def test_serve_http_live_directory_honours_cache_size(tmp_path, monkeypatch):
    """``serve-http DIR`` serves a live data directory behind the
    ``--cache-size`` result cache, exactly like a collection file."""
    docs = tmp_path / "docs.txt"
    docs.write_text(
        "usability testing of efficient software\n"
        "software measures task completion\n"
        "databases index tokens for retrieval\n",
        encoding="utf-8",
    )
    data_dir = tmp_path / "live"
    assert main(["ingest", str(docs), "--data-dir", str(data_dir)]) == 0
    seen = {}

    def serve_in_test(engine, config):
        with RunningServer(engine, config) as server:
            seen["cache"] = [
                server.request("GET", "/search?q=%27software%27&top_k=2")[1]["cache"]
                for _ in range(2)
            ]
            _, seen["stats"] = server.request("GET", "/stats")
        return 0

    monkeypatch.setattr("repro.server.serve", serve_in_test)
    assert main(["serve-http", str(data_dir), "--cache-size", "7"]) == 0
    assert seen["cache"] == ["miss", "hit"]
    cache = seen["stats"]["engine"]["cache"]
    assert cache["capacity"] == 7
    assert cache["hits"] >= 1


def test_sharded_live_directory_opens_as_a_cluster(tmp_path, capsys, monkeypatch):
    """``search``, ``stats`` and ``serve-http`` reopen a 2-shard directory
    written by ``ingest --shards 2`` with every document, in place."""
    docs = tmp_path / "docs.txt"
    docs.write_text(
        "usability testing of efficient software\n"
        "software measures task completion\n"
        "software databases index tokens\n"
        "retrieval software for documents\n",
        encoding="utf-8",
    )
    data_dir = tmp_path / "cluster"
    assert main(["ingest", str(docs), "--shards", "2", "--data-dir", str(data_dir)]) == 0
    capsys.readouterr()

    assert main(["search", str(data_dir), "'software'"]) == 0
    out = capsys.readouterr().out
    assert "4 match(es)" in out
    assert "scatter-gather over 2 shards" in out

    assert main(["stats", str(data_dir)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["nodes"] == 4
    assert stats["shards"] == 2
    assert sum(row["nodes"] for row in stats["shard_stats"]) == 4

    seen = {}

    def serve_in_test(engine, config):
        with RunningServer(engine, config) as server:
            seen["search"] = server.request("GET", "/search?q=%27software%27")[1]
        return 0

    monkeypatch.setattr("repro.server.serve", serve_in_test)
    assert main(["serve-http", str(data_dir)]) == 0
    assert seen["search"]["total_matches"] == 4

    # Reopening wrote nothing beside the shards.
    assert not (data_dir / "MANIFEST.json").exists()
    assert not (data_dir / "wal.jsonl").exists()
    assert sorted(path.name for path in data_dir.iterdir()) == ["shard-00", "shard-01"]

    assert main(["stats", str(data_dir), "--shards", "3"]) == 1
    err = capsys.readouterr().err
    assert "2-shard" in err and "--shards 3" in err
