"""Minimal ASCII plotting for terminal-rendered figures.

The paper's figures are line/scatter plots; benchmark output is text, so
these helpers draw coarse character plots — enough to eyeball U-shapes,
crossovers and drift, which is what the reproduction claims are about.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["line_plot", "histogram_plot", "sstable_ranges"]


def _scale(values: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    if hi <= lo:
        return np.zeros(values.size, dtype=int)
    pos = (values - lo) / (hi - lo) * (size - 1)
    return np.clip(np.round(pos).astype(int), 0, size - 1)


def line_plot(
    x: Sequence[float],
    series: dict[str, Sequence[float]],
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Plot one or more named series over shared ``x``, 72 columns by
    16 rows.

    Each series gets the marker of its first character; collisions show
    the most recently drawn series.
    """
    width, height = 72, 16
    if not series:
        raise ExperimentError("line_plot needs at least one series")
    xs = np.asarray(x, dtype=float)
    all_y = np.concatenate(
        [np.asarray(v, dtype=float)[np.isfinite(np.asarray(v, dtype=float))]
         for v in series.values()]
    )
    if all_y.size == 0:
        raise ExperimentError("line_plot: all series are empty/NaN")
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if math.isclose(y_lo, y_hi):
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for name, values in series.items():
        marker = name.strip()[0] if name.strip() else "*"
        markers[name] = marker
        ys = np.asarray(values, dtype=float)
        ok = np.isfinite(ys)
        cols = _scale(xs[ok], x_lo, x_hi, width)
        rows = _scale(ys[ok], y_lo, y_hi, height)
        for col, row in zip(cols, rows):
            grid[height - 1 - row][col] = marker
    lines = [f"{y_hi:>10.4g} +" + "".join(grid[0])]
    lines.extend("           |" + "".join(row) for row in grid[1:-1])
    lines.append(f"{y_lo:>10.4g} +" + "".join(grid[-1]))
    lines.append(
        "           " + f"{x_lo:<10.4g}".ljust(width // 2)
        + f"{x_hi:>10.4g}".rjust(width // 2 + 2)
    )
    legend = "  ".join(f"[{marker}] {name}" for name, marker in markers.items())
    return "\n".join([f"{y_label} vs {x_label}", *lines, legend])


def histogram_plot(
    edges: np.ndarray,
    counts: np.ndarray,
    value_format: str = "{:.3g}",
) -> str:
    """Horizontal-bar histogram, bars up to 50 characters: one row per
    bin, re-binned into 20 when there are more."""
    width, max_rows = 50, 20
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if edges.size != counts.size + 1:
        raise ExperimentError("histogram_plot: edges must be counts+1 long")
    if counts.size > max_rows:
        # Re-bin into max_rows coarser bins.
        splits = np.array_split(np.arange(counts.size), max_rows)
        new_counts = np.asarray([counts[s].sum() for s in splits])
        new_edges = np.asarray(
            [edges[s[0]] for s in splits] + [edges[-1]], dtype=float
        )
        edges, counts = new_edges, new_counts
    peak = counts.max() if counts.size else 0
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * (int(round(count / peak * width)) if peak > 0 else 0)
        label = value_format.format(edges[i])
        lines.append(f"{label:>12} | {bar} {int(count)}")
    return "\n".join(lines)


def sstable_ranges(
    ranges: list[tuple[float, float]],
    query: tuple[float, float] | None = None,
) -> str:
    """Draw SSTable generation-time ranges as horizontal segments.

    Reproduces the Figure 15 visualisation: one 72-column row for each
    of the last 24 SSTables, with the queried range marked by ``|``
    columns.
    """
    width, max_rows = 72, 24
    if not ranges:
        return "(no SSTables)"
    shown = ranges[-max_rows:]
    lo = min(r[0] for r in shown)
    hi = max(r[1] for r in shown)
    if query is not None:
        lo, hi = min(lo, query[0]), max(hi, query[1])
    if hi <= lo:
        hi = lo + 1.0
    def col(value: float) -> int:
        return int(round((value - lo) / (hi - lo) * (width - 1)))
    lines = []
    q_cols = (col(query[0]), col(query[1])) if query is not None else None
    for start, stop in shown:
        row = [" "] * width
        for c in range(col(start), col(stop) + 1):
            row[c] = "="
        if q_cols is not None:
            for qc in q_cols:
                row[qc] = "|" if row[qc] == " " else "+"
        lines.append("".join(row))
    header = f"generation time [{lo:.4g}, {hi:.4g}]"
    if query is not None:
        header += f", query window marked with |  ({len(ranges)} tables total)"
    return "\n".join([header, *lines])
