"""Uniform report model for CLI output.

A report is a header (tool version plus an echo of the parsed inputs) and
a flat list of labeled, unit-tagged rows.  Each row carries a provenance
tag: ``predicted`` (model output), ``measured`` (taken from published
data), or ``derived`` (intermediate quantity).  Rows in hbar units are
labeled ``hbar``.  A missing value is ``None``: ``null`` in JSON, ``nan`` elsewhere.

Three renderers: aligned text (floats at a configurable number of
significant digits, default 6), JSON (full-precision, canonical key
order, strict RFC 8259: no NaN or Infinity), and CSV.  ``csv_text`` is
the one CSV writer; the CLI's wide tables go through it too.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

PROVENANCE_TAGS = ("predicted", "measured", "derived")


@dataclass(frozen=True)
class ReportRow:
    label: str
    value: float | int | str | None
    unit: str
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(
                f"provenance must be one of {PROVENANCE_TAGS}, got {self.provenance!r}"
            )


@dataclass(frozen=True)
class Report:
    title: str
    header: dict
    rows: tuple[ReportRow, ...]


def format_value(value, digits: int = 6) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):  # bool too
        return str(value)
    return f"{value:.{digits}g}"


def render_text(report: Report, digits: int = 6) -> str:
    lines = [f"# {report.title}"]
    for key, value in report.header.items():
        lines.append(f"# {key}: {format_value(value, digits)}")
    if report.rows:
        table = [
            (row.label, format_value(row.value, digits), row.unit, row.provenance)
            for row in report.rows
        ]
        widths = [max(len(entry[i]) for entry in table) for i in range(3)]
        for label, value, unit, provenance in table:
            lines.append(
                f"{label:<{widths[0]}}  {value:>{widths[1]}}  {unit:<{widths[2]}}  {provenance}".rstrip()
            )
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    doc = {
        "title": report.title,
        "header": report.header,
        "rows": [
            {
                "label": row.label,
                "value": row.value,
                "unit": row.unit,
                "provenance": row.provenance,
            }
            for row in report.rows
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def csv_text(columns, rows) -> str:
    """CSV with a header line of ``columns`` and one line per row.

    Floats in ``rows`` are written with ``repr``, so they round-trip.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv(report: Report, digits: int = 6) -> str:
    return csv_text(
        ("label", "value", "unit", "provenance"),
        [(row.label, format_value(row.value, digits), row.unit, row.provenance)
         for row in report.rows],
    )
