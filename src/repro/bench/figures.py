"""Text rendering of the paper's figures (no plotting libraries needed).

The paper's figures are grouped bar charts: I/O time per (processor count,
strategy).  :func:`render_figure` draws the same thing with ASCII bars so a
terminal benchmark run can *show* the shape, not just list numbers.
"""

from __future__ import annotations

__all__ = ["render_bars", "render_figure"]

#: characters in the longest bar
BAR_WIDTH = 48


def render_bars(rows: list[tuple[str, float]], *, unit: str = "s") -> str:
    """Horizontal bar chart: ``rows`` are (label, value)."""
    if not rows:
        return "(no data)"
    peak = max(v for _, v in rows) or 1.0
    label_w = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        n = int(round(BAR_WIDTH * value / peak))
        bar = "#" * max(n, 1 if value > 0 else 0)
        lines.append(f"{label.rjust(label_w)} | {bar} {value:.3f} {unit}")
    return "\n".join(lines)


def render_figure(title: str, series: dict[str, dict], *, unit: str = "s") -> str:
    """A paper-style grouped chart.

    ``series`` maps a strategy name to ``{x_label: value}``; groups are the
    x labels (typically processor counts), bars within a group are the
    strategies.
    """
    lines = [title, "-" * len(title)]
    xs: list = []
    for points in series.values():
        for x in points:
            if x not in xs:
                xs.append(x)
    rows: list[tuple[str, float]] = []
    for x in xs:
        for name, points in series.items():
            if x in points:
                rows.append((f"{x} {name}", points[x]))
    lines.append(render_bars(rows, unit=unit))
    return "\n".join(lines)
