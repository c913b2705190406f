"""Plain-text table rendering for the benchmark reports."""

from __future__ import annotations

from typing import Optional, Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]],
                 aligns: Optional[Sequence[str]] = None) -> str:
    """Render a simple aligned text table ('l' or 'r' per column)."""
    if aligns is None:
        aligns = ["l"] + ["r"] * (len(headers) - 1)
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(cells):
        parts = []
        for index, cell in enumerate(cells):
            if aligns[index] == "r":
                parts.append(cell.rjust(widths[index]))
            else:
                parts.append(cell.ljust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = [fmt(headers), "-" * (sum(widths) + 2 * (len(widths) - 1))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def pct(value: float) -> str:
    return f"{value:+.1f}%"


def num(value: float, decimals: int = 1) -> str:
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.{decimals}f}"
