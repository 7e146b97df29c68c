"""Tests for the shared latency recorder and percentile helper."""

from __future__ import annotations

import threading

from repro.telemetry.latency import LatencyRecorder, percentile


def test_percentile_is_nearest_rank():
    values = sorted(float(value) for value in range(1, 101))
    assert percentile(values, 0.50) == 51.0  # int(0.5 * 100) = index 50
    assert percentile(values, 0.95) == 96.0
    assert percentile(values, 0.99) == 100.0
    assert percentile(values, 0.0) == 1.0


def test_percentile_empty_is_none():
    # Regression: an empty window used to report 0.0, which read as "we
    # answered in zero milliseconds"; before the first request there is no
    # latency to report, so the percentile is None (JSON null in /stats).
    assert percentile([], 0.5) is None
    assert percentile((), 0.99) is None


def test_recorder_percentiles_are_none_before_first_request():
    recorder = LatencyRecorder()
    assert recorder.percentile_ms(0.5) is None
    snapshot = recorder.snapshot()
    assert snapshot["count"] == 0
    assert snapshot["mean_ms"] == 0.0
    assert snapshot["p50_ms"] is None
    assert snapshot["p95_ms"] is None
    assert snapshot["p99_ms"] is None


def test_recorder_snapshot_counts_and_percentiles():
    recorder = LatencyRecorder()
    for value in [1.0, 2.0, 3.0, 4.0, 100.0]:
        recorder.record(value)
    snapshot = recorder.snapshot()
    assert snapshot["count"] == 5
    assert snapshot["mean_ms"] == 22.0
    assert snapshot["p50_ms"] == 3.0
    assert snapshot["p99_ms"] == 100.0


def test_recorder_window_bounds_percentiles_but_not_count():
    recorder = LatencyRecorder(window=10)
    for value in range(100):
        recorder.record(float(value))
    snapshot = recorder.snapshot()
    assert snapshot["count"] == 100  # lifetime count
    assert snapshot["p50_ms"] >= 90.0  # window holds only the last 10


def test_recorder_is_thread_safe():
    recorder = LatencyRecorder()

    def hammer():
        for _ in range(1000):
            recorder.record(1.0)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert recorder.count == 4000
    assert recorder.mean_ms() == 1.0
