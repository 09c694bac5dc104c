"""Renderers of the CLI's reports.

A report is a title, a header (tool version plus an echo of the parsed
inputs) and a flat list of ``(label, value, unit, provenance)`` rows, which
the renderers take as plain arguments.  The provenance
tag is ``predicted`` (model output), ``measured`` (taken from published
data), or ``derived`` (intermediate quantity).  Rows in hbar units are
labeled ``hbar``.  A missing value is ``None``: ``null`` in JSON, ``nan`` elsewhere.

Three renderers: aligned text (floats at a configurable number of
significant digits, default 6), JSON (full-precision, canonical key
order, strict RFC 8259: no NaN or Infinity), and CSV.  ``write_csv`` is
the one CSV writer: ``csv_text`` wraps it for the CLI's tables, and the
simulator streams its trajectory dumps through it.
"""

from __future__ import annotations

import io

# the fields of a row, which are also the columns of its CSV and the keys of its JSON
_COLUMNS = ("label", "value", "unit", "provenance")


def format_value(value, digits: int = 6) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):  # bool too
        return str(value)
    return f"{value:.{digits}g}"


def _formatted(rows, digits: int) -> list[tuple[str, str, str, str]]:
    return [
        (label, format_value(value, digits), unit, provenance)
        for label, value, unit, provenance in rows
    ]


def render_text(title: str, header: dict, rows, digits: int = 6) -> str:
    lines = [f"# {title}"]
    for key, value in header.items():
        lines.append(f"# {key}: {format_value(value, digits)}")
    if rows:
        table = _formatted(rows, digits)
        widths = [max(len(entry[i]) for entry in table) for i in range(3)]
        for label, value, unit, provenance in table:
            lines.append(
                f"{label:<{widths[0]}}  {value:>{widths[1]}}  {unit:<{widths[2]}}  {provenance}".rstrip()
            )
    return "\n".join(lines) + "\n"


def render_json(title: str, header: dict, rows) -> str:
    import json

    doc = {
        "title": title,
        "header": header,
        "rows": [dict(zip(_COLUMNS, row)) for row in rows],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_csv(stream, columns, rows) -> None:
    """Write CSV to the text ``stream``: a header line of ``columns`` and one
    line per row, taking ``rows`` one at a time, so an iterator is never held
    whole.  Floats in ``rows`` are written with ``repr``, so they round-trip.
    """
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


def csv_text(columns, rows) -> str:
    """``write_csv`` of ``columns`` and ``rows`` as a string."""
    buf = io.StringIO()
    write_csv(buf, columns, rows)
    return buf.getvalue()


def render_csv(rows, digits: int = 6) -> str:
    return csv_text(_COLUMNS, _formatted(rows, digits))
