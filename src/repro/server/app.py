"""The asyncio HTTP/JSON query service.

:class:`QueryServer` puts a network front end on a
:class:`~repro.core.engine.FullTextEngine` using only the standard library:

* **Endpoints.**  ``GET/POST /search`` (query text, ``top_k``, ``language``,
  ``timeout_ms``), ``GET /health`` (liveness + version) and ``GET /stats``
  (latency histograms, batching shape, and the engine's shard / cache /
  segment / packed statistics).
* **Micro-batching.**  Every search goes through the
  :class:`~repro.server.batching.BatchingDispatcher`: concurrent requests
  coalesce into one hop onto a dedicated engine thread, where each one is
  answered by its own ``engine.search`` (its ``top_k``, forced engine and
  ``explain``), so every client gets exactly that call's results.
* **Deadlines.**  Every request carries a deadline (``timeout_ms``,
  defaulting to :attr:`ServerConfig.default_timeout_ms`).  A request that
  cannot be answered in time receives a structured ``504`` JSON error --
  and the connection stays usable for the next request; evaluation already
  in flight finishes on the engine thread and is discarded.
* **Admission control.**  At most :attr:`ServerConfig.max_inflight`
  requests may be queued or executing; the next one is refused immediately
  with ``429`` (and ``503`` once draining), so the queue cannot grow
  without bound and no socket is ever left hanging.
* **Observability.**  Per-endpoint latency recorders and Prometheus
  exposition at ``/metrics`` (:mod:`repro.telemetry`), request ids stamped
  into responses/errors/access logs, per-request span traces on explain
  and slow-query paths, and optional JSONL access logs, one object per
  line.
* **Graceful drain.**  On SIGTERM/SIGINT the listener closes, in-flight
  requests finish (bounded by :attr:`ServerConfig.drain_grace_seconds`),
  idle keep-alive connections are torn down, and :func:`serve` returns 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import __version__
from repro.core.engine import FullTextEngine
from repro.core.query import LANGUAGE_LEVELS
from repro.engine.executor import AUTO, ENGINE_CLASS
from repro.exceptions import ReproError
from repro.server.batching import (
    BatchingDispatcher,
    DeadlineExceeded,
    DispatcherClosed,
)
from repro.server.http import (
    MAX_HEADER_BYTES,
    ProtocolError,
    Request,
    error_payload,
    read_request,
    render_response,
    render_text_response,
)
from repro.telemetry import SlowQueryLog, Trace, instruments, new_trace_id
from repro.telemetry.latency import LatencyRecorder, _fmt_ms
from repro.telemetry.registry import render_metrics

#: Endpoints with their own latency recorder in ``/stats``.
TRACKED_PATHS = ("/search", "/health", "/stats", "/metrics")

#: Content type of the Prometheus text exposition served at ``/metrics``.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _TextBody(str):
    """Marker: a response body already rendered as text, not JSON."""

    content_type = PROMETHEUS_CONTENT_TYPE


@dataclass
class ServerConfig:
    """Tunables of the HTTP query service (all have serving-safe defaults)."""

    host: str = "127.0.0.1"
    port: int = 8080
    #: Micro-batching: most requests handed to the engine thread in one
    #: hop, and how long the dispatcher lingers for stragglers after the
    #: first request arrives.
    max_batch_size: int = 32
    max_linger_ms: float = 2.0
    #: Admission control: requests queued or executing before 429s start.
    max_inflight: int = 64
    #: Deadline applied when a request does not send ``timeout_ms``.
    default_timeout_ms: float = 30_000.0
    #: ``top_k`` applied when a request does not send one.
    default_top_k: int = 10
    #: Ceiling on any requested ``top_k`` (bounds per-request work).
    max_top_k: int = 1_000
    #: How long SIGTERM waits for in-flight requests before cutting them.
    drain_grace_seconds: float = 10.0
    #: Idle keep-alive connections are closed after this long.
    idle_timeout_seconds: float = 120.0
    #: Writable text stream receiving one JSON object per request (or None).
    access_log: "object | None" = field(default=None, repr=False)
    #: Searches slower than this (milliseconds) dump their full trace to the
    #: slow-query log; ``None`` disables the log entirely.
    slow_query_ms: "float | None" = None
    #: Writable text stream for slow-query JSONL dumps (defaults to the
    #: access log stream, else stderr, when ``slow_query_ms`` is set).
    slow_query_log: "object | None" = field(default=None, repr=False)
    #: Optional :class:`~repro.bench.capture.WorkloadCapture` recording
    #: sampled /search traffic into a replayable JSONL workload.
    capture: "object | None" = field(default=None, repr=False)


class QueryServer:
    """One engine behind an asyncio HTTP front end.  See the module docstring."""

    def __init__(
        self, engine: FullTextEngine, config: ServerConfig | None = None
    ) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self._server: asyncio.base_events.Server | None = None
        self._engine_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        self.dispatcher = BatchingDispatcher(
            engine,
            max_batch_size=self.config.max_batch_size,
            max_linger_ms=self.config.max_linger_ms,
            engine_pool=self._engine_pool,
            # Adaptive linger: once a batch holds every admitted /search
            # request, waiting longer cannot add stragglers, only latency.
            pending_probe=lambda: self._inflight,
        )
        self._started = time.monotonic()
        self._draining = False
        self._inflight = 0  # /search requests queued or executing
        self._active = 0  # requests of any kind currently being served
        self._idle: asyncio.Event | None = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._connections_total = 0
        self._requests_total = 0
        self._status_counts: dict[int, int] = {}
        self._latency = {path: LatencyRecorder() for path in TRACKED_PATHS}
        self._other_latency = LatencyRecorder()
        self._slowlog: SlowQueryLog | None = None
        if self.config.slow_query_ms is not None:
            import sys

            stream = (
                self.config.slow_query_log
                or self.config.access_log
                or sys.stderr
            )
            self._slowlog = SlowQueryLog(stream, self.config.slow_query_ms)
        self.port: int | None = None  # bound port, known after start()
        self._stop_requested: asyncio.Event | None = None
        self._shutdown_complete: asyncio.Event | None = None
        self._shutting_down = False

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        """Bind the listener and start the dispatcher; sets :attr:`port`."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._stop_requested = asyncio.Event()
        self._shutdown_complete = asyncio.Event()
        self.dispatcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=2 * MAX_HEADER_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_signalled(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain and return (the CLI path)."""
        loop = asyncio.get_running_loop()
        installed: list[signal.Signals] = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_requested.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loops: rely on KeyboardInterrupt
        try:
            await self._stop_requested.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
            await self.shutdown()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight requests, tear everything down.

        The drain order matters: the listener closes first (no new
        connections), in-flight requests get up to ``drain_grace_seconds``
        to finish, *then* the dispatcher stops (it still evaluates whatever
        those requests queued), and only afterwards are idle keep-alive
        connections cancelled and the engine thread released.

        Idempotent and safe to call from anywhere on the loop: it also
        wakes :meth:`serve_until_signalled`, and a concurrent second call
        just awaits the first one's completion.
        """
        if self._stop_requested is not None:
            self._stop_requested.set()
        if self._shutting_down:
            if self._shutdown_complete is not None:
                await self._shutdown_complete.wait()
            return
        self._shutting_down = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._active and self._idle is not None:
            try:
                await asyncio.wait_for(
                    self._idle.wait(), self.config.drain_grace_seconds
                )
            except asyncio.TimeoutError:  # cut stragglers after the grace
                pass
        await self.dispatcher.stop()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._engine_pool.shutdown(wait=True)
        if self._shutdown_complete is not None:
            self._shutdown_complete.set()

    # ------------------------------------------------------- connection loop
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._connections_total += 1
        peer = writer.get_extra_info("peername")
        remote = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        read_request(reader), self.config.idle_timeout_seconds
                    )
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection: close quietly
                except ProtocolError as exc:
                    request_id = new_trace_id()
                    await self._respond(
                        writer,
                        exc.status,
                        error_payload("protocol_error", exc.message, request_id),
                        keep_alive=False,
                        request_id=request_id,
                    )
                    break
                if request is None:
                    break  # clean EOF
                request_id = (
                    request.headers.get("x-request-id") or new_trace_id()
                )
                started = time.monotonic()
                self._enter()
                try:
                    status, payload = await self._dispatch(request, request_id)
                finally:
                    self._leave()
                latency_ms = (time.monotonic() - started) * 1000.0
                keep_alive = request.keep_alive and not self._draining
                await self._respond(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    request_id=request_id,
                )
                self._observe(request, status, latency_ms, remote, request_id)
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionResetError):
            pass  # drain teardown or client went away mid-write
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        keep_alive: bool,
        request_id: str | None = None,
    ) -> None:
        headers = {"X-Request-Id": request_id} if request_id else None
        if isinstance(payload, _TextBody):
            raw = render_text_response(
                status,
                str(payload),
                keep_alive=keep_alive,
                content_type=payload.content_type,
                extra_headers=headers,
            )
        else:
            raw = render_response(
                status, payload, keep_alive=keep_alive, extra_headers=headers
            )
        writer.write(raw)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client is gone; the connection loop will close up

    # --------------------------------------------------------------- routing
    async def _dispatch(
        self, request: Request, request_id: str | None = None
    ) -> tuple[int, dict]:
        try:
            if request.path == "/health":
                if request.method != "GET":
                    return 405, error_payload(
                        "method_not_allowed", "use GET", request_id
                    )
                return 200, self._health_payload()
            if request.path == "/stats":
                if request.method != "GET":
                    return 405, error_payload(
                        "method_not_allowed", "use GET", request_id
                    )
                return 200, await self._stats_payload()
            if request.path == "/metrics":
                if request.method != "GET":
                    return 405, error_payload(
                        "method_not_allowed", "use GET", request_id
                    )
                return 200, _TextBody(render_metrics())
            if request.path == "/search":
                if request.method not in ("GET", "POST"):
                    return 405, error_payload(
                        "method_not_allowed", "use GET or POST", request_id
                    )
                return await self._handle_search(request, request_id)
            return 404, error_payload(
                "not_found", f"no route {request.path!r}", request_id
            )
        except ProtocolError as exc:
            return exc.status, error_payload("bad_request", exc.message, request_id)
        except Exception as exc:  # never leave a request unanswered
            return 500, error_payload(
                "internal_error", f"{type(exc).__name__}: {exc}", request_id
            )

    # ---------------------------------------------------------------- search
    async def _handle_search(
        self, request: Request, request_id: str | None = None
    ) -> tuple[int, dict]:
        if self._draining:
            return 503, error_payload(
                "draining", "server is shutting down", request_id
            )
        if self._inflight >= self.config.max_inflight:
            return 429, error_payload(
                "overloaded",
                f"{self._inflight} requests in flight "
                f"(limit {self.config.max_inflight}); retry later",
                request_id,
            )
        try:
            text, top_k, language, engine_choice, timeout_ms, explain = (
                self._search_arguments(request)
            )
        except ProtocolError as exc:
            return exc.status, error_payload("bad_request", exc.message, request_id)
        try:
            parsed = self.engine.parse(text, language)
        except ReproError as exc:
            return 400, error_payload("query_error", str(exc), request_id)
        deadline = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None
        )
        # A trace costs one object per span, so it is only built when
        # something will read it: an explain response or the slow-query log.
        trace = (
            Trace(request_id or new_trace_id())
            if (explain or self._slowlog is not None)
            else None
        )
        started = time.monotonic()
        self._inflight += 1
        try:
            results = await self.dispatcher.submit(
                parsed,
                top_k,
                engine_choice=engine_choice,
                deadline=deadline,
                explain=explain,
                trace=trace,
            )
        except DeadlineExceeded:
            self._slowlog_check(started, text, trace, 504, request_id)
            self._capture_check(started, request, text, top_k, language,
                                engine_choice, 504, request_id)
            return 504, error_payload(
                "deadline_exceeded",
                f"query {text!r} missed its {timeout_ms:.0f} ms deadline",
                request_id,
            )
        except DispatcherClosed:
            return 503, error_payload(
                "draining", "server is shutting down", request_id
            )
        except ReproError as exc:
            return 400, error_payload("query_error", str(exc), request_id)
        finally:
            self._inflight -= 1
        payload = {
            "query": results.query_text,
            "language_class": results.language_class.value,
            "engine": results.engine,
            "top_k": top_k,
            "total_matches": results.total_matches,
            "elapsed_ms": results.elapsed_seconds * 1000.0,
            "request_id": request_id,
            "results": [
                {
                    "node_id": result.node_id,
                    "score": result.score,
                    "preview": result.preview,
                }
                for result in results
            ],
        }
        payload.update(results.metadata)
        if trace is not None and explain:
            trace.end()
            payload["trace"] = trace.to_dict()
        self._slowlog_check(started, text, trace, 200, request_id,
                            plan=results.plan)
        self._capture_check(started, request, text, top_k, language,
                            engine_choice, 200, request_id)
        return 200, payload

    def _capture_check(
        self,
        started: float,
        request: Request,
        text: str,
        top_k: int | None,
        language: str,
        engine_choice: str,
        status: int,
        request_id: str | None,
    ) -> None:
        capture = self.config.capture
        if capture is None:
            return
        capture.record(
            query=text,
            top_k=top_k,
            language=language,
            engine=engine_choice,
            method=request.method,
            status=status,
            request_id=request_id,
            elapsed_ms=(time.monotonic() - started) * 1000.0,
        )

    def _slowlog_check(
        self,
        started: float,
        text: str,
        trace: "Trace | None",
        status: int,
        request_id: str | None,
        plan: dict | None = None,
    ) -> None:
        if self._slowlog is None:
            return
        if trace is not None:
            trace.end()
        self._slowlog.maybe_record(
            (time.monotonic() - started) * 1000.0,
            query=text,
            trace=trace,
            status=status,
            trace_id=request_id,
            plan=plan,
        )

    def _search_arguments(
        self, request: Request
    ) -> tuple[str, int | None, str, str, float, bool]:
        """Merge query-string and JSON-body parameters (body wins on POST)."""
        params: dict = dict(request.params)
        if request.method == "POST":
            params.update(request.json_body())
        text = params.get("q") or params.get("query")
        if not text or not isinstance(text, str):
            raise ProtocolError(
                400, "missing query: pass ?q=... or a JSON body with \"q\""
            )
        top_k = self._int_param(params, "top_k", self.config.default_top_k)
        if top_k is not None and top_k < 1:
            raise ProtocolError(400, f"top_k must be >= 1, got {top_k}")
        if top_k is not None and top_k > self.config.max_top_k:
            raise ProtocolError(
                400,
                f"top_k must be <= {self.config.max_top_k}, got {top_k}",
            )
        language = str(params.get("language", "auto"))
        if language not in LANGUAGE_LEVELS:
            raise ProtocolError(400, f"unknown language {language!r}")
        engine_choice = str(params.get("engine", AUTO))
        if engine_choice not in (AUTO, *ENGINE_CLASS):
            raise ProtocolError(400, f"unknown engine {engine_choice!r}")
        timeout_ms = self._float_param(
            params, "timeout_ms", self.config.default_timeout_ms
        )
        if timeout_ms is not None and timeout_ms <= 0:
            raise ProtocolError(400, f"timeout_ms must be > 0, got {timeout_ms}")
        explain = self._bool_param(params, "explain", False)
        return text, top_k, language, engine_choice, timeout_ms or 0.0, explain

    @staticmethod
    def _int_param(params: dict, name: str, default: int | None) -> int | None:
        value = params.get(name, default)
        if value is None:
            return None
        try:
            if isinstance(value, bool):
                raise ValueError
            return int(value)
        except (TypeError, ValueError):
            raise ProtocolError(400, f"{name} must be an integer, got {value!r}")

    @staticmethod
    def _bool_param(params: dict, name: str, default: bool) -> bool:
        value = params.get(name, default)
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off", ""):
                return False
        raise ProtocolError(400, f"{name} must be a boolean, got {value!r}")

    @staticmethod
    def _float_param(
        params: dict, name: str, default: float | None
    ) -> float | None:
        value = params.get(name, default)
        if value is None:
            return None
        try:
            if isinstance(value, bool):
                raise ValueError
            return float(value)
        except (TypeError, ValueError):
            raise ProtocolError(400, f"{name} must be a number, got {value!r}")

    # ----------------------------------------------------- health and stats
    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "version": __version__,
            "collection": self.engine.collection.name,
            "shards": self.engine.num_shards,
            "live": self.engine.is_live,
            "uptime_seconds": time.monotonic() - self._started,
        }

    async def _stats_payload(self) -> dict:
        # Engine-side statistics run on the engine thread: they share data
        # structures with evaluation, so they must serialise behind it.
        loop = asyncio.get_running_loop()
        engine_stats = await loop.run_in_executor(
            self._engine_pool, self.engine.stats
        )
        latency = {
            path: recorder.snapshot() for path, recorder in self._latency.items()
        }
        if self._other_latency.count:
            latency["other"] = self._other_latency.snapshot()
        return {
            "version": __version__,
            "server": {
                "uptime_seconds": time.monotonic() - self._started,
                "draining": self._draining,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "connections": {
                    "open": len(self._conn_tasks),
                    "total": self._connections_total,
                },
                "requests": {
                    "total": self._requests_total,
                    "by_status": {
                        str(status): count
                        for status, count in sorted(self._status_counts.items())
                    },
                },
                "latency": latency,
                "batching": self.dispatcher.stats(),
            },
            "gauges": instruments.gauge_snapshot(),
            "engine": engine_stats,
        }

    # ------------------------------------------------------------ accounting
    def _enter(self) -> None:
        self._active += 1
        if instruments.REGISTRY.enabled:
            instruments.HTTP_INFLIGHT_REQUESTS.inc()
        if self._idle is not None:
            self._idle.clear()

    def _leave(self) -> None:
        self._active -= 1
        if instruments.REGISTRY.enabled:
            instruments.HTTP_INFLIGHT_REQUESTS.dec()
        if self._active == 0 and self._idle is not None:
            self._idle.set()

    def _observe(
        self,
        request: Request,
        status: int,
        latency_ms: float,
        remote: str,
        request_id: str | None = None,
    ) -> None:
        self._requests_total += 1
        self._status_counts[status] = self._status_counts.get(status, 0) + 1
        recorder = self._latency.get(request.path, self._other_latency)
        recorder.record(latency_ms)
        if instruments.REGISTRY.enabled:
            path_label = instruments.http_path_label(request.path)
            instruments.HTTP_REQUESTS_TOTAL.labels(path_label, str(status)).inc()
            instruments.HTTP_REQUEST_SECONDS.labels(path_label).observe(
                latency_ms / 1000.0
            )
        log = self.config.access_log
        if log is not None:
            line = json.dumps(
                {
                    "ts": time.time(),
                    "request_id": request_id,
                    "remote": remote,
                    "method": request.method,
                    "path": request.path,
                    "status": status,
                    "latency_ms": round(latency_ms, 3),
                },
                ensure_ascii=False,
            )
            print(line, file=log, flush=True)


async def _serve_async(engine: FullTextEngine, config: ServerConfig) -> None:
    server = QueryServer(engine, config)
    await server.start()
    sockets = ", ".join(
        f"{sock.getsockname()[0]}:{sock.getsockname()[1]}"
        for sock in server._server.sockets
    )
    print(
        f"repro serve-http: {engine.collection.name!r} on {sockets} "
        f"({engine.num_shards} shard(s), batch<= {config.max_batch_size}, "
        f"linger {config.max_linger_ms:g} ms, inflight<= {config.max_inflight})",
        flush=True,
    )
    await server.serve_until_signalled()
    snapshot = server._latency["/search"].snapshot()
    print(
        f"drained; served {server._requests_total} request(s) "
        f"({snapshot['count']} searches, p50={_fmt_ms(snapshot['p50_ms'])} "
        f"p95={_fmt_ms(snapshot['p95_ms'])})",
        flush=True,
    )


def serve(engine: FullTextEngine, config: ServerConfig | None = None) -> int:
    """Run the server until SIGTERM/SIGINT; returns the process exit code."""
    try:
        asyncio.run(_serve_async(engine, config or ServerConfig()))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
    return 0
