"""End-to-end observability: /metrics, request ids, explain, slow-query log."""

from __future__ import annotations

import io
import json

from repro.server import ServerConfig

from harness import RunningServer, make_engine

QUERY = "'usability' AND 'software'"


def raw_get(server: RunningServer, target: str, headers: dict | None = None):
    """GET returning (status, headers, body-bytes) without JSON parsing."""
    conn = server.connect()
    try:
        conn.request("GET", target, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# ----------------------------------------------------------------- /metrics
def test_metrics_endpoint_serves_prometheus_text(server_collection):
    engine = make_engine(server_collection, shards=2, cache_size=16)
    with RunningServer(engine) as server:
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        status, headers, body = raw_get(server, "/metrics")
    assert status == 200
    assert headers["Content-Type"] == "text/plain; version=0.0.4; charset=utf-8"
    text = body.decode("utf-8")
    for family in (
        "repro_queries_total",
        "repro_query_seconds",
        "repro_cursor_ops_total",
        "repro_cache_lookups_total",
        "repro_wal_appends_total",
        "repro_compactions_total",
        "repro_scatter_tasks_total",
        "repro_http_requests_total",
    ):
        assert f"# TYPE {family}" in text, f"{family} missing from /metrics"
    assert 'repro_http_requests_total{path="/search",status="200"}' in text


def test_metrics_post_is_method_not_allowed(server_collection):
    engine = make_engine(server_collection)
    with RunningServer(engine) as server:
        status, payload = server.request("POST", "/metrics", body={})
    assert status == 405


# --------------------------------------------------------------- request id
def test_client_request_id_is_echoed_everywhere(server_collection):
    engine = make_engine(server_collection)
    access_log = io.StringIO()
    config = ServerConfig(access_log=access_log)
    with RunningServer(engine, config) as server:
        conn = server.connect()
        try:
            conn.request(
                "POST",
                "/search",
                body=json.dumps({"q": QUERY, "top_k": 2}),
                headers={
                    "Content-Type": "application/json",
                    "X-Request-Id": "req-abc-123",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200
            assert response.getheader("X-Request-Id") == "req-abc-123"
            assert payload["request_id"] == "req-abc-123"
        finally:
            conn.close()
    logged = [json.loads(line) for line in access_log.getvalue().splitlines()]
    assert any(entry["request_id"] == "req-abc-123" for entry in logged)


def test_request_id_is_generated_when_absent(server_collection):
    engine = make_engine(server_collection)
    with RunningServer(engine) as server:
        status, headers, body = raw_get(server, "/health")
    assert status == 200
    generated = headers.get("X-Request-Id")
    assert generated and len(generated) == 16
    assert all(ch in "0123456789abcdef" for ch in generated)


def test_error_responses_carry_the_request_id(server_collection):
    engine = make_engine(server_collection)
    with RunningServer(engine) as server:
        conn = server.connect()
        try:
            conn.request(
                "POST",
                "/search",
                body=json.dumps({"q": "'unterminated"}),
                headers={
                    "Content-Type": "application/json",
                    "X-Request-Id": "req-err-1",
                },
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert payload["error"]["code"] == "query_error"
            assert payload["error"]["request_id"] == "req-err-1"
            assert response.getheader("X-Request-Id") == "req-err-1"
        finally:
            conn.close()


def test_stats_renders_null_percentiles_before_traffic(server_collection):
    engine = make_engine(server_collection)
    with RunningServer(engine) as server:
        status, headers, body = raw_get(server, "/stats")
    assert status == 200
    latency = json.loads(body)["server"]["latency"]["/search"]
    assert latency["count"] == 0
    assert latency["p50_ms"] is None
    assert latency["p95_ms"] is None


# ------------------------------------------------------------------ explain
def test_http_explain_attaches_payload_and_trace(server_collection):
    engine = make_engine(server_collection, shards=2, cache_size=16)
    with RunningServer(engine) as server:
        _, plain = server.request(
            "POST", "/search", body={"q": QUERY, "top_k": 4}
        )
        status, explained = server.request(
            "POST", "/search", body={"q": QUERY, "top_k": 4, "explain": True}
        )
    assert status == 200
    assert explained["results"] == plain["results"]  # bit-identical
    assert explained["cache"] == "bypass"
    payload = explained["explain"]
    assert payload["operator"] == "scatter"
    assert payload["shard_count"] == 2
    assert payload["cursor_totals"]["next_entry_calls"] > 0
    trace = explained["trace"]
    assert trace["trace_id"] == explained["request_id"]
    names = {child["name"] for child in trace.get("children", [])}
    assert names  # dispatcher/engine spans were attached


def test_http_explain_via_query_string(server_collection):
    engine = make_engine(server_collection)
    with RunningServer(engine) as server:
        status, payload = server.request(
            "GET", "/search?q=%27usability%27&top_k=2&explain=true"
        )
        assert status == 200
        assert payload["explain"]["operator"] == "scatter"
        assert payload["explain"]["shards"][0]["operator"] == "execute"
        status, payload = server.request(
            "GET", "/search?q=%27usability%27&top_k=2&explain=nonsense"
        )
        assert status == 400


# ------------------------------------------------------------ slow-query log
def test_slow_query_log_dumps_traces_over_threshold(server_collection):
    engine = make_engine(server_collection, shards=2, cache_size=0)
    slow_log = io.StringIO()
    config = ServerConfig(slow_query_ms=0.0001, slow_query_log=slow_log)
    with RunningServer(engine, config) as server:
        status, payload = server.request(
            "POST", "/search", body={"q": QUERY, "top_k": 3}
        )
        assert status == 200
    entries = [json.loads(line) for line in slow_log.getvalue().splitlines()]
    assert entries, "every query should breach a 0.0001 ms threshold"
    entry = entries[0]
    assert entry["query"] == QUERY
    assert entry["status"] == 200
    assert entry["threshold_ms"] == 0.0001
    assert entry["trace_id"] == payload["request_id"]
    assert entry["trace"]["name"] == "request"


def test_fast_queries_stay_out_of_the_slow_log(server_collection):
    engine = make_engine(server_collection)
    slow_log = io.StringIO()
    config = ServerConfig(slow_query_ms=60_000.0, slow_query_log=slow_log)
    with RunningServer(engine, config) as server:
        status, _ = server.request(
            "POST", "/search", body={"q": QUERY, "top_k": 3}
        )
        assert status == 200
    assert slow_log.getvalue() == ""


def test_slow_query_log_records_plan_provenance(server_collection):
    engine = make_engine(server_collection, optimizer="on")
    slow_log = io.StringIO()
    config = ServerConfig(slow_query_ms=0.0001, slow_query_log=slow_log)
    with RunningServer(engine, config) as server:
        status, _ = server.request(
            "POST", "/search", body={"q": QUERY, "top_k": 3}
        )
        assert status == 200
    entries = [json.loads(line) for line in slow_log.getvalue().splitlines()]
    assert entries
    plan = entries[0]["plan"]
    assert plan["optimizer"] == "on"
    assert plan["provenance"] in ("optimized", "cached")
    assert plan["merge_strategy"]  # a slow query's choices are in the log


def test_stats_reports_optimizer_mode_and_planner_counters(server_collection):
    engine = make_engine(server_collection, optimizer="on")
    with RunningServer(engine) as server:
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        status, stats = server.request("GET", "/stats")
    assert status == 200
    optimizer = stats["engine"]["optimizer"]
    assert optimizer["mode"] == "on"
    assert optimizer["plans_built"] >= 1
    assert "memo_hits" in optimizer


def test_metrics_count_plans_by_provenance(server_collection):
    engine = make_engine(server_collection, optimizer="on")
    with RunningServer(engine) as server:
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        server.request("POST", "/search", body={"q": QUERY, "top_k": 3})
        _, _, body = raw_get(server, "/metrics")
    text = body.decode("utf-8")
    assert "repro_plans_total" in text
    assert 'repro_plans_total{source="optimized"}' in text
