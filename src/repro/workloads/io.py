"""Dataset persistence: a CSV round-trip."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..errors import WorkloadError
from .dataset import TimeSeriesDataset

__all__ = ["save_csv", "load_csv"]


def save_csv(dataset: TimeSeriesDataset, path: str | Path) -> None:
    """Write ``generation_time,arrival_time`` rows with a header."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["generation_time", "arrival_time"])
        for tg, ta in zip(dataset.tg, dataset.ta):
            writer.writerow([repr(float(tg)), repr(float(ta))])


def load_csv(path: str | Path) -> TimeSeriesDataset:
    """Read a dataset written by :func:`save_csv` (or any two-column CSV
    with generation/arrival columns), named after the file's stem; rows
    are re-sorted by arrival."""
    path = Path(path)
    tg_list: list[float] = []
    ta_list: list[float] = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise WorkloadError(f"{path}: empty CSV")
        for row in reader:
            if len(row) < 2:
                raise WorkloadError(f"{path}: malformed row {row!r}")
            try:
                tg_list.append(float(row[0]))
                ta_list.append(float(row[1]))
            except ValueError:
                raise WorkloadError(
                    f"{path}:{reader.line_num}: row {row!r} is not two numbers"
                ) from None
    tg = np.asarray(tg_list, dtype=np.float64)
    ta = np.asarray(ta_list, dtype=np.float64)
    order = np.lexsort((tg, ta))
    return TimeSeriesDataset(
        name=path.stem,
        tg=tg[order],
        ta=ta[order],
        dt=None,
        metadata={"source": str(path)},
    )
