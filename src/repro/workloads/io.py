"""Dataset persistence: CSV (portable) and NPZ (fast) round-trips."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..errors import WorkloadError
from .dataset import TimeSeriesDataset

__all__ = ["save_csv", "load_csv", "save_npz", "load_npz"]


def save_csv(dataset: TimeSeriesDataset, path: str | Path) -> None:
    """Write ``generation_time,arrival_time`` rows with a header."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["generation_time", "arrival_time"])
        for tg, ta in zip(dataset.tg, dataset.ta):
            writer.writerow([repr(float(tg)), repr(float(ta))])


def load_csv(path: str | Path, name: str | None = None) -> TimeSeriesDataset:
    """Read a dataset written by :func:`save_csv` (or any two-column CSV
    with generation/arrival columns); rows are re-sorted by arrival."""
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
        name=name if name is not None else path.stem,
        tg=tg[order],
        ta=ta[order],
        dt=None,
        metadata={"source": str(path)},
    )


def save_npz(dataset: TimeSeriesDataset, path: str | Path) -> None:
    """Write the dataset as a compressed NPZ with JSON-encoded metadata."""
    np.savez_compressed(
        Path(path),
        tg=dataset.tg,
        ta=dataset.ta,
        name=np.asarray(dataset.name),
        dt=np.asarray(np.nan if dataset.dt is None else dataset.dt),
        metadata=np.asarray(json.dumps(dataset.metadata, default=str)),
    )


def load_npz(path: str | Path) -> TimeSeriesDataset:
    """Read a dataset written by :func:`save_npz`."""
    with np.load(Path(path), allow_pickle=False) as archive:
        dt = float(archive["dt"])
        return TimeSeriesDataset(
            name=str(archive["name"]),
            tg=archive["tg"],
            ta=archive["ta"],
            dt=None if np.isnan(dt) else dt,
            metadata=json.loads(str(archive["metadata"])),
        )
