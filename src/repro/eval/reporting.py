"""Plain-text rendering for experiment results."""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table (right-aligned numerics)."""
    rendered: List[List[str]] = [[_render_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for idx, cell in enumerate(row):
            widths[idx] = max(widths[idx], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row, raw in zip(rendered, rendered):
        cells = []
        for idx, cell in enumerate(row):
            # left-align the first (label) column, right-align the rest
            if idx == 0:
                cells.append(cell.ljust(widths[idx]))
            else:
                cells.append(cell.rjust(widths[idx]))
        lines.append("  ".join(cells))
    return "\n".join(lines)
