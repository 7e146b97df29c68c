"""``repro doctor``: validate the environment before serving traffic.

A deployment checklist that answers "will ``repro serve-http`` work here?"
without starting a server.  Each check yields a :class:`CheckResult`; the
run fails (exit code 1) only on hard failures -- warnings describe degraded
but workable setups (for example a platform whose event loop cannot install
POSIX signal handlers).

Checks:

* Python version and the stdlib features the stack leans on
  (``asyncio.start_server``, ``mmap``) and a planner probe;
* optionally, an index target: a saved collection file is loaded and
  validated, a live data directory is checked for a parseable manifest,
  the segment files it references, and a readable WAL;
* optionally, that a host/port can actually be bound.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: Minimum interpreter the package supports.
MIN_PYTHON = (3, 10)


@dataclass(frozen=True)
class CheckResult:
    """One doctor check: ``status`` is ``"ok"``, ``"warn"`` or ``"fail"``."""

    name: str
    status: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _ok(name: str, detail: str) -> CheckResult:
    return CheckResult(name, "ok", detail)


def _warn(name: str, detail: str) -> CheckResult:
    return CheckResult(name, "warn", detail)


def _fail(name: str, detail: str) -> CheckResult:
    return CheckResult(name, "fail", detail)


def check_python() -> CheckResult:
    version = sys.version_info
    label = f"{version.major}.{version.minor}.{version.micro}"
    if (version.major, version.minor) < MIN_PYTHON:
        return _fail(
            "python", f"{label} < {'.'.join(map(str, MIN_PYTHON))} (unsupported)"
        )
    return _ok("python", f"{label} (>= {'.'.join(map(str, MIN_PYTHON))})")


def check_asyncio() -> CheckResult:
    import asyncio

    if not hasattr(asyncio, "start_server"):  # pragma: no cover - stdlib
        return _fail("asyncio", "asyncio.start_server is unavailable")
    return _ok("asyncio", "stream server available")


def check_mmap() -> CheckResult:
    try:
        import mmap  # noqa: F401 - import is the check
    except ImportError:  # pragma: no cover - stdlib
        return _fail("mmap", "mmap module unavailable; packed readers need it")
    return _ok("mmap", "zero-copy packed segment readers available")


def check_optimizer() -> CheckResult:
    """Verify the planning layer imports and plans a probe query.

    Catches a broken install (missing planner package) before traffic does:
    both optimizer modes build a plan artifact for every non-COMP query.
    """
    try:
        from repro.planner import DEFAULT_OPTIMIZER, OPTIMIZER_MODES
        from repro.planner.optimizer import QueryPlanner
        from repro.core.query import parse_query
        from repro.model.predicates import default_registry

        probe = parse_query("'a' AND 'b'", "auto", default_registry()).node
        planner = QueryPlanner(lambda token: 1)
        plan = planner.plan(
            probe,
            engine="bool",
            language_class="BOOL",
            optimizer="on",
            access_mode="paper",
        )
    except Exception as exc:  # degraded install: report, don't crash doctor
        return _fail("optimizer", f"planning layer broken: {exc}")
    return _ok(
        "optimizer",
        f"cost-based planner operational (modes: {', '.join(OPTIMIZER_MODES)}; "
        f"default {DEFAULT_OPTIMIZER}, builtin heuristics; 'on' memoises "
        f"plans per canonical query; probe plan: {plan.merge_strategy} "
        f"merge)",
    )


def check_port(host: str, port: int) -> CheckResult:
    import socket

    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            bound = sock.getsockname()[1]
    except OSError as exc:
        return _fail("port", f"cannot bind {host}:{port}: {exc}")
    return _ok("port", f"{host}:{bound} is bindable")


def check_index_file(path: Path) -> list[CheckResult]:
    from repro.exceptions import ReproError
    from repro.index.storage import load_collection

    try:
        collection = load_collection(path)
    except ReproError as exc:
        return [_fail("index", f"{path}: {exc}")]
    except OSError as exc:
        return [_fail("index", f"{path}: {exc}")]
    summary = collection.describe()
    return [
        _ok(
            "index",
            f"{path}: {summary['nodes']} nodes, {summary['tokens']} tokens, "
            f"vocabulary {summary['vocabulary']}",
        )
    ]


def check_live_dir(path: Path) -> list[CheckResult]:
    """Validate a live-index data directory without replaying it."""
    from repro.segments.live_index import MANIFEST_NAME, SEGMENT_DIR, WAL_NAME

    results: list[CheckResult] = []
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        return [
            _fail(
                "manifest",
                f"{manifest_path} missing: not a live data directory "
                f"(expected the layout written by 'repro ingest --data-dir')",
            )
        ]
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [_fail("manifest", f"{manifest_path}: {exc}")]
    segments = manifest.get("segments", [])
    results.append(
        _ok(
            "manifest",
            f"{manifest_path.name}: {len(segments)} segment(s), "
            f"applied_seq={manifest.get('applied_seq')}",
        )
    )
    missing = []
    for entry in segments:
        name = entry.get("file")
        if name and not (path / SEGMENT_DIR / name).exists():
            missing.append(name)
    if missing:
        results.append(
            _fail("segments", f"{len(missing)} referenced file(s) missing: "
                  + ", ".join(missing[:5]))
        )
    elif segments:
        results.append(_ok("segments", f"all {len(segments)} segment file(s) present"))
    wal_path = path / WAL_NAME
    if not wal_path.exists():
        results.append(
            _warn("wal", f"{wal_path.name} missing (no unflushed mutations)")
        )
    else:
        try:
            with wal_path.open("r", encoding="utf-8") as handle:
                records = sum(1 for line in handle if line.strip())
        except OSError as exc:
            results.append(_fail("wal", f"{wal_path}: {exc}"))
        else:
            results.append(_ok("wal", f"{wal_path.name}: {records} record(s)"))
    return results


def run_doctor(
    index_path: "str | Path | None" = None,
    host: str | None = None,
    port: int | None = None,
) -> list[CheckResult]:
    """Run every applicable check and return the results in print order."""
    results = [
        check_python(),
        check_asyncio(),
        check_mmap(),
        check_optimizer(),
    ]
    if host is not None and port is not None:
        results.append(check_port(host, port))
    if index_path is not None:
        target = Path(index_path)
        if target.is_dir():
            results.extend(check_live_dir(target))
        elif target.exists():
            results.extend(check_index_file(target))
        else:
            results.append(_fail("index", f"{target}: no such file or directory"))
    return results


def render_report(results: list[CheckResult]) -> str:
    """The human-readable doctor report (one aligned line per check)."""
    lines = []
    for result in results:
        marker = {"ok": "ok  ", "warn": "WARN", "fail": "FAIL"}[result.status]
        lines.append(f"{marker}  {result.name:16} {result.detail}")
    failures = sum(1 for result in results if result.failed)
    warnings = sum(1 for result in results if result.status == "warn")
    verdict = "ready to serve" if not failures else "NOT ready to serve"
    lines.append(
        f"\n{len(results)} check(s): {failures} failure(s), "
        f"{warnings} warning(s) -- {verdict}"
    )
    return "\n".join(lines)
