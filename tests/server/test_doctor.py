"""Tests for ``repro doctor``: environment and index-target validation."""

from __future__ import annotations

import json

from repro.cli import main
from repro.index.storage import save_collection
from repro.segments.live_index import MANIFEST_NAME, SEGMENT_DIR, WAL_NAME
from repro.server.doctor import render_report, run_doctor


def statuses(results):
    return {result.name: result.status for result in results}


def test_environment_checks_pass_here():
    results = run_doctor()
    assert not any(result.failed for result in results)
    by_name = statuses(results)
    assert by_name["python"] == "ok"
    assert by_name["asyncio"] == "ok"
    assert by_name["mmap"] == "ok"
    assert by_name["optimizer"] == "ok"
    assert "tempdir" not in by_name
    assert "multiprocessing" not in by_name


def test_port_check_binds_ephemeral_port():
    results = run_doctor(host="127.0.0.1", port=0)
    assert statuses(results)["port"] == "ok"


def test_index_file_check_reports_collection_summary(
    server_collection, tmp_path
):
    saved = tmp_path / "collection.json"
    save_collection(server_collection, saved)
    results = run_doctor(index_path=saved)
    index_checks = [result for result in results if result.name == "index"]
    assert len(index_checks) == 1
    assert index_checks[0].status == "ok"
    assert "nodes" in index_checks[0].detail


def test_missing_index_path_fails(tmp_path):
    results = run_doctor(index_path=tmp_path / "nope.json")
    assert any(result.failed and result.name == "index" for result in results)


def test_corrupt_index_file_fails(tmp_path):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json", encoding="utf-8")
    results = run_doctor(index_path=bad)
    assert any(result.failed and result.name == "index" for result in results)


def test_live_dir_check_validates_manifest_segments_and_wal(tmp_path):
    data = tmp_path / "live"
    (data / SEGMENT_DIR).mkdir(parents=True)
    (data / SEGMENT_DIR / "seg-000.bin").write_bytes(b"\x00")
    (data / MANIFEST_NAME).write_text(
        json.dumps({"segments": [{"file": "seg-000.bin"}], "applied_seq": 3}),
        encoding="utf-8",
    )
    (data / WAL_NAME).write_text('{"op": "add"}\n{"op": "delete"}\n')
    results = run_doctor(index_path=data)
    by_name = statuses(results)
    assert by_name["manifest"] == "ok"
    assert by_name["segments"] == "ok"
    assert by_name["wal"] == "ok"
    wal = next(result for result in results if result.name == "wal")
    assert "2 record(s)" in wal.detail


def test_live_dir_missing_segment_file_fails(tmp_path):
    data = tmp_path / "live"
    (data / SEGMENT_DIR).mkdir(parents=True)
    (data / MANIFEST_NAME).write_text(
        json.dumps({"segments": [{"file": "gone.bin"}], "applied_seq": 1}),
        encoding="utf-8",
    )
    results = run_doctor(index_path=data)
    by_name = statuses(results)
    assert by_name["segments"] == "fail"
    assert by_name["wal"] == "warn"  # missing WAL is workable, not fatal


def test_non_live_directory_fails_manifest_check(tmp_path):
    results = run_doctor(index_path=tmp_path)
    assert any(
        result.failed and result.name == "manifest" for result in results
    )


def test_sharded_live_dir_is_checked_per_shard(tmp_path, capsys):
    docs = tmp_path / "docs.txt"
    docs.write_text("usability testing\nsoftware task\ndatabases index\n")
    data = tmp_path / "cluster"
    assert main(["ingest", str(docs), "--shards", "2", "--data-dir", str(data)]) == 0
    capsys.readouterr()
    by_name = statuses(run_doctor(index_path=data))
    assert by_name["shard-00/manifest"] == "ok"
    assert by_name["shard-01/manifest"] == "ok"
    assert by_name["shard-01/wal"] == "ok"
    assert "manifest" not in by_name  # the top level is not a live index
    assert main(["doctor", str(data)]) == 0
    assert "ready to serve" in capsys.readouterr().out


def test_render_report_verdict():
    passing = run_doctor()
    report = render_report(passing)
    assert "ready to serve" in report
    failing = run_doctor(index_path="/nonexistent/path.json")
    assert "NOT ready to serve" in render_report(failing)


def test_doctor_cli_exit_codes(server_collection, tmp_path, capsys):
    saved = tmp_path / "collection.json"
    save_collection(server_collection, saved)
    assert main(["doctor", str(saved)]) == 0
    assert "ready to serve" in capsys.readouterr().out
    assert main(["doctor", str(tmp_path / "missing.json")]) == 1
    assert "NOT ready to serve" in capsys.readouterr().out


def test_optimizer_check_reports_planner_health():
    results = run_doctor()
    by_check = {result.name: result for result in results}
    optimizer = by_check["optimizer"]
    assert optimizer.status == "ok"
    assert "cost-based planner operational" in optimizer.detail
    assert "modes: on, off" in optimizer.detail
    assert "static" not in optimizer.detail
