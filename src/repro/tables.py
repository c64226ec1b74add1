"""Plain-text tables and the documents built from them.

The one renderer of the package: every experiment result and every
report a command prints is a :class:`Document` — a title, a subtitle,
then captioned :class:`ResultTable` s and free-text blocks separated by
blank lines, then notes — and every cell goes through
:func:`format_value`.  The module sits below both :mod:`repro.obs` and
:mod:`repro.experiments` and imports neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ExperimentError

__all__ = ["Document", "ResultTable", "format_table", "format_value"]


def format_value(value) -> str:
    """Render one cell: floats get 4 significant digits, rest ``str``."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e6 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: list[str], rows: list[list], justify=str.rjust) -> str:
    """Align ``rows`` under ``headers`` with a separator line.

    ``justify`` pads a cell to its column's width: numbers read best
    flush right (the default), a listing of names flush left
    (``str.ljust``).
    """
    rendered = [[format_value(cell) for cell in row] for row in rows]
    for row in rendered:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(headers[col]), *(len(r[col]) for r in rendered)) if rendered
        else len(headers[col])
        for col in range(len(headers))
    ]
    def line(cells):
        return "  ".join(justify(cell, width) for cell, width in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


@dataclass(frozen=True)
class ResultTable:
    """One captioned table of a document."""

    caption: str
    headers: list[str]
    rows: list[list]

    def render(self) -> str:
        """Caption plus the aligned table body."""
        return f"{self.caption}\n{format_table(self.headers, self.rows)}"

    def column(self, name: str) -> list:
        """Extract one column by header name."""
        try:
            index = self.headers.index(name)
        except ValueError as exc:
            raise ExperimentError(
                f"no column {name!r} in {self.headers}"
            ) from exc
        return [row[index] for row in self.rows]


@dataclass
class Document:
    """A titled plain-text report, ready to print."""

    title: str
    #: The line under the title (a paper reference, an event count).
    subtitle: str
    #: Captioned tables and pre-rendered text (charts, one-line
    #: findings), each set off by a blank line.
    blocks: list[ResultTable | str] = field(default_factory=list)
    #: Free-form observations, printed last as ``note: ...`` lines.
    notes: list[str] = field(default_factory=list)

    def add_table(self, caption: str, headers: list[str], rows: list[list]) -> None:
        """Append one captioned table."""
        self.blocks.append(ResultTable(caption=caption, headers=headers, rows=rows))

    def render(self) -> str:
        """Header, blocks, notes."""
        parts = [f"== {self.title}", self.subtitle]
        for block in self.blocks:
            parts.append("")
            parts.append(block if isinstance(block, str) else block.render())
        if self.notes:
            parts.append("")
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)
