"""Standalone SVG bar charts from a two-column table.

Output is deterministic for equal inputs: plain rects, lines and text, no
timestamps, fixed float formatting. The tallest bar reaches 90% of the
plot height; every bar carries its category name and its value printed to
two decimals.
"""

from __future__ import annotations

from .errors import EmptyTable, NegativeValue, TypeMismatch
from .table import CType, Table, format_cell

_WIDTH = 640
_HEIGHT = 480
_MARGIN_LEFT = 50.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 40.0
_MARGIN_BOTTOM = 40.0
_BAR_FILL = "#4e79a7"


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_bar_chart(t: Table, category_col: str, value_col: str, title: str = "") -> bytes:
    """Render one bar per row; values must be numeric and non-negative."""
    categories = t.column(category_col)
    values = t.column(value_col)
    if values.ctype not in (CType.INT, CType.REAL):
        raise TypeMismatch(f"column '{value_col}' is {values.ctype.value}, need numeric")
    if t.row_count == 0:
        raise EmptyTable("cannot chart an empty table")
    vals: list[float] = []
    for i, v in enumerate(values.cells):
        if v is None:
            raise TypeMismatch(f"row {i}: null value cannot be charted")
        if v < 0:
            raise NegativeValue(f"row {i}: value {v} is negative")
        vals.append(float(v))

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    baseline = _MARGIN_TOP + plot_h
    max_val = max(vals)
    scale = (0.9 * plot_h / max_val) if max_val > 0 else 0.0
    slot = plot_w / len(vals)
    bar_w = slot * 0.6

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(title)}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN_LEFT:.2f}" y1="{baseline:.2f}" '
        f'x2="{_MARGIN_LEFT + plot_w:.2f}" y2="{baseline:.2f}" stroke="black"/>'
    )
    for i, (cat, val) in enumerate(zip(categories.cells, vals)):
        label = format_cell(cat)
        bar_h = val * scale
        x = _MARGIN_LEFT + i * slot + (slot - bar_w) / 2
        y = baseline - bar_h
        cx = x + bar_w / 2
        parts.append(
            f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
            f'height="{bar_h:.2f}" fill="{_BAR_FILL}"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{y - 6:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{val:.2f}</text>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{baseline + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_esc(label)}</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
