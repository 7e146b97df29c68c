"""Network serving: the asyncio HTTP/JSON query service.

This package is the wire-facing tier of the stack -- everything needed to
put a :class:`~repro.core.engine.FullTextEngine` behind a socket without a
single dependency beyond the standard library:

* :mod:`repro.server.http`     -- a bounded HTTP/1.1 request parser and JSON
  response writer over asyncio streams (keep-alive, ``Content-Length``
  framing, structured protocol errors);
* :mod:`repro.server.batching` -- the micro-batching dispatcher coalescing
  concurrent requests into one hop onto a dedicated engine thread, where
  each request is answered by its own ``engine.search``;
* :mod:`repro.server.app`      -- :class:`~repro.server.app.QueryServer`
  itself: routing, deadlines, admission control, access logs, ``/health``
  + ``/stats``, and SIGTERM drain;
* :mod:`repro.server.doctor`   -- the ``repro doctor`` environment and
  data-directory validator.

The CLI entry point is ``repro serve-http``.
"""

from repro.server.app import QueryServer, ServerConfig, serve
from repro.server.batching import (
    BatchingDispatcher,
    DeadlineExceeded,
    DispatcherClosed,
)
from repro.server.doctor import CheckResult, render_report, run_doctor
from repro.server.http import ProtocolError, Request
from repro.telemetry.latency import LatencyRecorder, percentile

__all__ = [
    "BatchingDispatcher",
    "CheckResult",
    "DeadlineExceeded",
    "DispatcherClosed",
    "LatencyRecorder",
    "ProtocolError",
    "QueryServer",
    "Request",
    "ServerConfig",
    "percentile",
    "render_report",
    "run_doctor",
    "serve",
]
