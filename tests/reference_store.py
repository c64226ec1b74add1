"""A store nobody could get wrong: the oracle of the differential tests.

One growing array per series, in arrival order; a point's id is its
arrival index, as in an engine.  Every query is a brute-force mask over
everything ever written — no tables, no MemTables, no index, no cache,
no shards, nothing to flush, convert, re-split or recover.  Whatever
configuration the system under test runs in, it must answer what this
answers.  (``benchmarks/system/oracle.py`` does the same for the system
benchmark; the idea is shared, the code is not.)
"""

import math

import numpy as np


class ReferenceStore:
    def __init__(self) -> None:
        self._tg: dict[str, np.ndarray] = {}

    def write(self, name: str, tg) -> None:
        old = self._tg.get(name, np.empty(0, dtype=np.float64))
        self._tg[name] = np.concatenate([old, np.asarray(tg, dtype=np.float64)])

    def series_names(self) -> list[str]:
        return list(self._tg)

    def rows(self, names, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
        """``(tg, ids)`` of every point of ``names`` in ``[lo, hi]``,
        sorted by ``(tg, id)``; ``names=None`` is every series."""
        picked_tg, picked_ids = [np.empty(0)], [np.empty(0, dtype=np.int64)]
        for name in self._tg if names is None else names:
            tg = self._tg[name]
            inside = np.flatnonzero((tg >= lo) & (tg <= hi))
            picked_tg.append(tg[inside])
            picked_ids.append(inside)
        return canonical_rows(np.concatenate(picked_tg), np.concatenate(picked_ids))

    def aggregate(self, names, lo: float, hi: float) -> tuple[int, float, float, float]:
        """``(count, minimum, maximum, total)``; extrema are NaN when
        nothing matches, ``total`` is the correctly rounded sum."""
        tg, _ = self.rows(names, lo, hi)
        if tg.size == 0:
            return 0, math.nan, math.nan, 0.0
        return int(tg.size), float(tg[0]), float(tg[-1]), math.fsum(tg)


def canonical_rows(tg, ids) -> tuple[np.ndarray, np.ndarray]:
    """Rows sorted by ``(tg, id)``: equal generation times come back from
    a store in whatever order its tables hold them."""
    order = np.lexsort((ids, tg))
    return np.asarray(tg)[order], np.asarray(ids)[order]
