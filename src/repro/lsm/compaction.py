"""Leveled-compaction merge primitives."""

from __future__ import annotations

import numpy as np

from .points import sort_by_generation
from .sstable import SSTable

__all__ = ["concat_sorted_tables", "merge_tables_with_batch", "stage_overlap_merge"]


def merge_tables_with_batch(
    tables: list[SSTable],
    batch_tg: np.ndarray,
    batch_ids: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge on-disk tables with an in-memory batch into sorted arrays.

    All inputs are individually sorted by generation time; the output is
    their union, sorted.  A stable concatenate-then-sort is used: numpy's
    mergesort on mostly-sorted input is effectively a multiway merge and
    far faster than a Python heap.  With no tables the sorted batch is
    already the answer and is returned as is.
    """
    if not tables:
        return batch_tg, batch_ids
    parts_tg = [t.tg for t in tables]
    parts_ids = [t.ids for t in tables]
    parts_tg.append(batch_tg)
    parts_ids.append(batch_ids)
    tg = np.concatenate(parts_tg)
    ids = np.concatenate(parts_ids)
    return sort_by_generation(tg, ids)


def concat_sorted_tables(
    tables: list[SSTable],
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate tables (possibly overlapping) into one sorted batch.

    This is the staging step shared by every whole-group reorganisation:
    a tiered level spilling its runs, a multilevel cascade moving a full
    level down, and the IoTDB L1 -> L2 background compaction.
    """
    tg = np.concatenate([t.tg for t in tables])
    ids = np.concatenate([t.ids for t in tables])
    return sort_by_generation(tg, ids)


def stage_overlap_merge(run, tg: np.ndarray):
    """Stage a leveled merge of a sorted batch into ``run``.

    Returns ``(region, victims, rewritten)``: the contiguous slice of
    tables overlapping the batch's generation-time range, those tables,
    and their total point count.  Pure staging — nothing mutates, so a
    fault boundary may still abort the compaction afterwards.
    """
    lo, hi = float(tg[0]), float(tg[-1])
    region = run.overlap_slice(lo, hi)
    victims = run.tables[region]
    rewritten = run.points_in(region)
    return region, victims, rewritten
