"""Plain-text reporting of experiment tables.

The paper presents its results as line plots; here the same data is printed
as aligned text tables (one row per x-axis value, one column per series) plus
a short "shape check" summarising the qualitative claims of Section 6.1:
BOOL ≼ PPRED ≼ NPRED ≼ COMP, PPRED ≈ BOOL, NPRED < COMP on negative
predicates, and minimal NPRED orders ≼ all orders.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence

from repro.bench.harness import ExperimentTable


def format_seconds(value: object) -> str:
    """Milliseconds with three decimals, or blank for missing values."""
    if value == "" or value is None:
        return ""
    return f"{float(value) * 1000:.3f}"


def table_to_text(table: ExperimentTable, unit: str = "ms") -> str:
    """Render an experiment table as an aligned plain-text table."""
    series = table.series_names()
    header = [table.x_label] + [f"{name} ({unit})" for name in series]
    rows: list[list[str]] = [header]
    for raw in table.to_rows():
        row = [str(raw[table.x_label])]
        for name in series:
            row.append(format_seconds(raw.get(name, "")))
        rows.append(row)
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [table.name, "-" * len(table.name)]
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def table_to_csv(table: ExperimentTable) -> str:
    """Render an experiment table as CSV (seconds, not milliseconds)."""
    series = table.series_names()
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow([table.x_label] + list(series))
    for raw in table.to_rows():
        writer.writerow([raw[table.x_label]] + [raw.get(name, "") for name in series])
    return buffer.getvalue()


def ordering_check(
    table: ExperimentTable,
    faster: str,
    slower: str,
    tolerance: float = 1.5,
) -> bool:
    """True iff ``faster`` is no slower than ``tolerance`` × ``slower`` at every point.

    A generous tolerance absorbs interpreter noise at sub-millisecond scales;
    the paper's claim is about asymptotic ordering, not constant factors.
    """
    fast_curve = dict(table.series(faster))
    slow_curve = dict(table.series(slower))
    shared = set(fast_curve) & set(slow_curve)
    if not shared:
        return True
    return all(fast_curve[x] <= slow_curve[x] * tolerance for x in shared)


def shape_summary(table: ExperimentTable) -> list[str]:
    """Qualitative claims of Section 6.1 checked against the measured table."""
    claims: list[tuple[str, str, str, float]] = [
        ("BOOL is never slower than COMP-POS", "BOOL", "COMP-POS", 1.5),
        ("PPRED-POS is never slower than COMP-POS", "PPRED-POS", "COMP-POS", 1.5),
        # PPRED vs NPRED on positive predicates is a constant-factor contest
        # (one ordering trial each); allow generous noise headroom.
        ("PPRED-POS is comparable to NPRED-POS", "PPRED-POS", "NPRED-POS", 4.0),
        ("NPRED-NEG is never slower than COMP-NEG", "NPRED-NEG", "COMP-NEG", 1.5),
        # The NPRED-orders ablation: necessary orders only vs every order.
        (
            "NPRED-minimal is never slower than NPRED-all",
            "NPRED-minimal",
            "NPRED-all",
            1.5,
        ),
    ]
    lines = []
    for description, fast, slow, tolerance in claims:
        if not table.series(fast) or not table.series(slow):
            continue
        verdict = "OK" if ordering_check(table, fast, slow, tolerance) else "VIOLATED"
        lines.append(f"[{verdict}] {description}")
    return lines


def render_report(tables: Sequence[ExperimentTable]) -> str:
    """Full plain-text report over several figures."""
    sections = []
    for table in tables:
        sections.append(table_to_text(table))
        summary = shape_summary(table)
        if summary:
            sections.append("\n".join(summary))
    return "\n\n".join(sections)
