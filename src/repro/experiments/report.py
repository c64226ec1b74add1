"""Experiment result container.

Every experiment module produces an :class:`ExperimentResult`: the
tables/series the corresponding paper figure or table reports, rendered
as aligned text — a :class:`repro.tables.Document` — so benchmark runs
print the reproduced rows directly.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ExperimentError
from ..tables import Document, ResultTable, format_table, format_value

__all__ = ["ResultTable", "ExperimentResult", "format_table", "format_value"]


@dataclass
class ExperimentResult:
    """Everything one experiment reproduces, ready to print."""

    experiment_id: str
    title: str
    #: What the paper reports in this figure/table.
    paper_reference: str
    tables: list[ResultTable] = field(default_factory=list)
    #: Free-form observations (model-vs-measured commentary, caveats).
    notes: list[str] = field(default_factory=list)
    #: Pre-rendered ASCII charts appended after the tables.
    charts: list[str] = field(default_factory=list)

    def add_table(self, caption: str, headers: list[str], rows: list[list]) -> None:
        """Append one captioned table to the result."""
        self.tables.append(ResultTable(caption=caption, headers=headers, rows=rows))

    def table(self, caption_prefix: str) -> ResultTable:
        """First table whose caption starts with ``caption_prefix``."""
        for table in self.tables:
            if table.caption.startswith(caption_prefix):
                return table
        raise ExperimentError(
            f"{self.experiment_id}: no table with caption prefix "
            f"{caption_prefix!r}"
        )

    def render(self) -> str:
        """Full plain-text report: header, tables, charts, notes."""
        return Document(
            title=f"{self.experiment_id}: {self.title}",
            subtitle=self.paper_reference,
            blocks=[*self.tables, *self.charts],
            notes=self.notes,
        ).render()

    def save_csv(self, directory: str | Path) -> list[Path]:
        """Write one CSV per table into ``directory`` for external analysis.

        File names are ``<experiment_id>__<slugified caption>.csv``;
        returns the written paths.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for table in self.tables:
            slug = re.sub(r"[^a-z0-9]+", "-", table.caption.lower()).strip("-")
            slug = slug[:60] or "table"
            path = directory / f"{self.experiment_id}__{slug}.csv"
            with path.open("w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table.headers)
                writer.writerows(table.rows)
            written.append(path)
        return written
