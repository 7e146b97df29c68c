"""Registry semantics: metric kinds, exposition format, concurrency."""

from __future__ import annotations

import re
import threading

import pytest

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    render_metrics,
)

#: One Prometheus text-format sample line:
#: ``name{label="value",...} number`` (labels optional).
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})?'
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf|NaN))$"
)


def test_counter_inc_and_value():
    registry = MetricsRegistry()
    counter = registry.counter("t_counter", "help")
    assert counter.value() == 0
    counter.inc()
    counter.inc(4)
    assert counter.value() == 5


def test_labelled_counter_children_are_independent():
    registry = MetricsRegistry()
    counter = registry.counter("t_labelled", "help", ("op",))
    counter.labels("next").inc(3)
    counter.labels("seek").inc()
    assert counter.value("next") == 3
    assert counter.value("seek") == 1
    with pytest.raises(ValueError):
        counter.inc()  # labelled family refuses unlabelled increments
    with pytest.raises(ValueError):
        counter.labels("a", "b")  # wrong label arity


def test_gauge_set_inc_dec():
    registry = MetricsRegistry()
    gauge = registry.gauge("t_gauge", "help")
    gauge.set(10)
    gauge.inc(2.5)
    gauge.dec()
    assert gauge.value() == 11.5


def test_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    histogram = registry.histogram("t_hist", "help", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        histogram.observe(value)
    lines = histogram.render()
    by_line = {line.rsplit(" ", 1)[0]: line.rsplit(" ", 1)[1] for line in lines[2:]}
    assert by_line['t_hist_bucket{le="0.1"}'] == "1"
    assert by_line['t_hist_bucket{le="1"}'] == "3"
    assert by_line['t_hist_bucket{le="+Inf"}'] == "4"
    assert by_line["t_hist_count"] == "4"
    assert float(by_line["t_hist_sum"]) == pytest.approx(6.05)


def test_histogram_boundary_value_lands_in_its_bucket():
    registry = MetricsRegistry()
    histogram = registry.histogram("t_edge", "help", buckets=(1.0,))
    histogram.observe(1.0)  # le="1" is inclusive in Prometheus semantics
    lines = histogram.render()
    assert 't_edge_bucket{le="1"} 1' in lines


def test_name_conflict_across_kinds_raises():
    registry = MetricsRegistry()
    registry.counter("t_conflict", "help")
    with pytest.raises(ValueError):
        registry.gauge("t_conflict", "help")
    with pytest.raises(ValueError):
        registry.histogram("t_conflict", "help")


def test_same_name_same_kind_returns_same_family():
    registry = MetricsRegistry()
    assert registry.counter("t_same", "help") is registry.counter("t_same", "x")


def test_disabled_registry_records_nothing_but_still_scrapes():
    registry = MetricsRegistry()
    counter = registry.counter("t_disabled", "help")
    histogram = registry.histogram("t_disabled_h", "help")
    counter.inc()
    registry.set_enabled(False)
    counter.inc(100)
    histogram.observe(1.0)
    registry.set_enabled(True)
    counter.inc()
    assert counter.value() == 2
    assert histogram.count() == 0
    assert "t_disabled 2" in registry.render()


def test_render_is_valid_prometheus_text():
    registry = MetricsRegistry()
    registry.counter("t_fmt_counter", "a counter", ("kind",)).labels(
        'quo"te\\back'
    ).inc()
    registry.gauge("t_fmt_gauge", "a gauge").set(1.5)
    registry.histogram("t_fmt_hist", "a histogram").observe(0.002)
    text = registry.render()
    assert text.endswith("\n")
    for line in text.strip().split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert SAMPLE_LINE.match(line), f"bad exposition line: {line!r}"


def test_every_family_renders_help_and_type_headers():
    registry = MetricsRegistry()
    registry.counter("t_hdr_c", "counter help")
    registry.histogram("t_hdr_h", "hist help")
    text = registry.render()
    assert "# HELP t_hdr_c counter help" in text
    assert "# TYPE t_hdr_c counter" in text
    assert "# TYPE t_hdr_h histogram" in text


def test_default_registry_exposes_full_catalogue():
    import repro.telemetry.instruments  # noqa: F401  (registers the catalogue)

    text = render_metrics()
    for family in (
        "repro_queries_total",
        "repro_query_seconds",
        "repro_cursor_ops_total",
        "repro_cache_lookups_total",
        "repro_cache_evictions_total",
        "repro_wal_appends_total",
        "repro_wal_fsyncs_total",
        "repro_memtable_seals_total",
        "repro_compactions_total",
        "repro_scatter_tasks_total",
        "repro_http_requests_total",
        "repro_slow_queries_total",
    ):
        assert f"# TYPE {family}" in text, f"{family} missing from catalogue"
    for retired in ("repro_spool_respills_total", "repro_spool_bytes"):
        assert f"# TYPE {retired}" not in text


def test_default_buckets_are_sorted_and_distinct():
    assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


def test_counter_is_exact_under_thread_contention():
    registry = MetricsRegistry()
    counter = registry.counter("t_contended", "help", ("lane",))
    increments, threads = 5000, 8

    def hammer(lane: str) -> None:
        child = counter.labels(lane)
        for _ in range(increments):
            child.inc()

    workers = [
        threading.Thread(target=hammer, args=(str(lane % 2),))
        for lane in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert counter.value("0") == increments * threads / 2
    assert counter.value("1") == increments * threads / 2


def test_scraped_counter_is_monotonic_while_incrementing():
    registry = MetricsRegistry()
    counter = registry.counter("t_monotonic", "help")
    stop = threading.Event()
    violations: list[tuple[float, float]] = []

    def scrape() -> None:
        last = 0.0
        while not stop.is_set():
            current = counter.value()
            if current < last:
                violations.append((last, current))
            last = current

    def produce() -> None:
        for _ in range(20000):
            counter.inc()

    reader = threading.Thread(target=scrape)
    writers = [threading.Thread(target=produce) for _ in range(4)]
    reader.start()
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join()
    stop.set()
    reader.join()
    assert not violations, f"scrape went backwards: {violations[:3]}"
    assert counter.value() == 80000
