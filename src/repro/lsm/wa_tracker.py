"""Exact write-amplification accounting.

The paper measures WA by "recording the writing times of each data point"
(Section III): every time a point is written to disk — first flush or
compaction rewrite — its counter increments, and

    WA = total disk writes / points ingested by the user.

:class:`WriteStats` keeps the per-point counters plus an event log, so
experiments can compute overall WA, WA over time (Figure 10), and
per-compaction rewrite volumes (Figure 5).

The counters are one per point ever ingested, so they are stored as
``uint16`` — two bytes a point — and widened to ``int64`` only when an
exact guard cannot rule out an overflow (see :meth:`WriteStats.
record_written`).  Everything read out of the class is ``int64``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..config import is_integer
from ..errors import CheckpointCorruptError, EngineError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["CompactionEvent", "WriteStats"]


class CompactionEvent(NamedTuple):
    """One disk-writing event (a flush or a merge).

    A ``NamedTuple``, built once per landing: read fields by name, copy
    with ``._replace``.
    """

    #: ``"flush"`` (append, no rewrite) or ``"merge"`` (compaction).
    kind: str
    #: Number of user points ingested when the event fired.
    arrival_index: int
    #: Points written for the first time by this event.
    new_points: int
    #: Previously-persisted points rewritten by this event.
    rewritten_points: int
    #: On-disk SSTables consumed (rewritten) by this event.
    tables_rewritten: int
    #: SSTables produced by this event.
    tables_written: int

    @property
    def disk_writes(self) -> int:
        """Total points written to disk by this event."""
        return self.new_points + self.rewritten_points


class WriteStats:
    """Per-point write counters and the compaction event log."""

    def __init__(self, initial_capacity: int = 1024) -> None:
        if initial_capacity < 1:
            raise EngineError("initial_capacity must be >= 1")
        self._set_counts(np.zeros(initial_capacity, dtype=np.uint16))
        #: No counter exceeds this: the largest counter at the last exact
        #: scan plus every id recorded since (each adds one to one counter).
        self._ceiling = 0
        self._max_id = -1
        self.user_points = 0
        self.disk_writes = 0
        self.events: list[CompactionEvent] = []
        self._telemetry: Telemetry = NULL_TELEMETRY

    def _set_counts(self, counts: np.ndarray) -> None:
        """Adopt ``counts`` with the overflow limit and the increment of
        its dtype — typed, because ``np.add.at`` on ``uint16`` with a
        Python ``1`` takes numpy's casting path, over ten times slower."""
        self._counts = counts
        self._limit = int(np.iinfo(counts.dtype).max)
        self._one = counts.dtype.type(1)

    def _widen(self) -> None:
        """Move the counters to ``int64`` (no overflow in any real run)."""
        self._set_counts(self._counts.astype(np.int64))

    def bind_telemetry(self, telemetry: Telemetry) -> None:
        """Mirror every recorded event onto ``telemetry``'s bus.

        Accounting semantics are unchanged — the bus only *observes*.
        Engines sharing one ``WriteStats`` (e.g. across an adaptive
        policy switch) share the binding.
        """
        self._telemetry = telemetry

    # -- recording -----------------------------------------------------------

    def record_ingest(self, count: int) -> None:
        """Account ``count`` points handed to the engine by the user."""
        if count < 0:
            raise EngineError(f"ingest count must be non-negative, got {count}")
        self.user_points += count

    def record_written(self, ids: np.ndarray) -> None:
        """Increment write counters for every id in ``ids``.

        Each occurrence adds one (duplicates count per occurrence).  The
        counters stay ``uint16`` while ``_ceiling`` proves this call
        cannot overflow them; only when it cannot is the maximum rescanned
        (O(capacity)), and the counters widened if that does not suffice.
        """
        size = ids.size
        if size == 0:
            return
        # argmin/argmax rather than min/max: on landing-sized arrays the
        # ufunc-reduction set-up costs several times the scan itself.
        low = int(ids[ids.argmin()])
        if low < 0:
            # np.add.at would silently wrap negative ids to the array
            # tail and corrupt other points' counters.
            raise EngineError(f"point ids must be non-negative, got min {low}")
        top = int(ids[ids.argmax()])
        counts = self._counts
        if top >= counts.size:
            grown = np.zeros(max(counts.size * 2, top + 1), dtype=counts.dtype)
            grown[: counts.size] = counts
            self._counts = counts = grown
        if self._ceiling + size > self._limit:
            # About once per 65 k recorded writes: rescan, and widen if
            # even the exact maximum leaves too little headroom.
            self._ceiling = int(counts.max())
            if self._ceiling + size > self._limit:
                self._widen()
                counts = self._counts
        np.add.at(counts, ids, self._one)
        self._ceiling += size
        if top > self._max_id:
            self._max_id = top
        self.disk_writes += size
        if self._telemetry.enabled:
            self._telemetry.count("engine.disk_points_written", size)

    def record_event(self, event: CompactionEvent) -> None:
        """Append one flush/merge event to the log.

        Events are validated on the way in: counts must be non-negative
        and the ``arrival_index`` stamps must be monotone (engines only
        move forward through the arrival stream).  Merged or replayed
        logs that legitimately interleave arrivals are assembled
        directly on :attr:`events` (or via checkpoint restore), not
        through this method.
        """
        if event.kind not in ("flush", "merge"):
            raise EngineError(
                f"event kind must be 'flush' or 'merge': {event!r}"
            )
        if min(event[1:]) < 0:  # every field after ``kind`` is a count
            for field_name in event._fields[1:]:
                if getattr(event, field_name) < 0:
                    raise EngineError(
                        f"event field {field_name} must be non-negative: {event!r}"
                    )
        if self.events and event.arrival_index < self.events[-1].arrival_index:
            raise EngineError(
                "event arrival_index must be monotone: got "
                f"{event.arrival_index} after {self.events[-1].arrival_index} "
                f"in {event!r}"
            )
        self.events.append(event)
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.emit(
                {
                    "type": "compaction",
                    "kind": event.kind,
                    "arrival_index": event.arrival_index,
                    "new_points": event.new_points,
                    "rewritten_points": event.rewritten_points,
                    "tables_rewritten": event.tables_rewritten,
                    "tables_written": event.tables_written,
                }
            )
            telemetry.count(f"engine.{event.kind}es")
            telemetry.count("engine.rewritten_points", event.rewritten_points)

    # -- checkpointing -------------------------------------------------------

    _EVENT_KINDS = ("flush", "merge")

    def to_checkpoint(self) -> tuple[dict, dict[str, np.ndarray]]:
        """Serialise the counters and event log for a checkpoint."""
        events = self.events
        meta = {
            "user_points": self.user_points,
            "disk_writes": self.disk_writes,
            "max_id": self._max_id,
        }
        arrays = {
            "stats.counts": self.write_counts,
            "stats.ev_kind": np.asarray(
                [self._EVENT_KINDS.index(e.kind) for e in events], dtype=np.int8
            ),
            "stats.ev_arrival": np.asarray(
                [e.arrival_index for e in events], dtype=np.int64
            ),
            "stats.ev_new": np.asarray(
                [e.new_points for e in events], dtype=np.int64
            ),
            "stats.ev_rewritten": np.asarray(
                [e.rewritten_points for e in events], dtype=np.int64
            ),
            "stats.ev_tables_rewritten": np.asarray(
                [e.tables_rewritten for e in events], dtype=np.int64
            ),
            "stats.ev_tables_written": np.asarray(
                [e.tables_written for e in events], dtype=np.int64
            ),
        }
        return meta, arrays

    @classmethod
    def from_checkpoint(
        cls, meta: dict, arrays: dict[str, np.ndarray]
    ) -> "WriteStats":
        """Rebuild the instance stored by :meth:`to_checkpoint`.

        A counter array that is not one integer per id up to ``max_id``
        (what this method has always written), holds a negative counter
        or does not sum to ``disk_writes`` is
        :class:`CheckpointCorruptError` — recovery then replays the WAL.
        The counters restore as ``uint16`` when the largest fits.
        """
        counts = np.asarray(arrays["stats.counts"])
        max_id = int(meta["max_id"])
        if counts.ndim != 1 or counts.size != max_id + 1 or counts.dtype.kind not in "iu":
            raise CheckpointCorruptError(
                f"stats.counts holds {counts.size} counters of {counts.dtype}, "
                f"expected {max_id + 1} integers (max_id {max_id})"
            )
        stats = cls(initial_capacity=max(int(counts.size), 1))
        if counts.size:
            low, high = int(counts.min()), int(counts.max())
            if low < 0:
                raise CheckpointCorruptError(f"stats.counts holds a negative counter ({low})")
            if high > stats._limit:
                stats._widen()
            stats._counts[: counts.size] = counts
            stats._ceiling = high
        disk_writes = int(counts.sum())
        if meta["disk_writes"] != disk_writes:
            raise CheckpointCorruptError(
                f"disk_writes {meta['disk_writes']!r} is not the counters' sum {disk_writes}"
            )
        stats._max_id = max_id
        stats.user_points = int(meta["user_points"])
        stats.disk_writes = disk_writes
        kinds = arrays["stats.ev_kind"]
        stats.events = [
            CompactionEvent(
                kind=cls._EVENT_KINDS[int(kinds[i])],
                arrival_index=int(arrays["stats.ev_arrival"][i]),
                new_points=int(arrays["stats.ev_new"][i]),
                rewritten_points=int(arrays["stats.ev_rewritten"][i]),
                tables_rewritten=int(arrays["stats.ev_tables_rewritten"][i]),
                tables_written=int(arrays["stats.ev_tables_written"][i]),
            )
            for i in range(int(kinds.size))
        ]
        return stats

    # -- reading -------------------------------------------------------------

    @property
    def write_counts(self) -> np.ndarray:
        """Write counter per point id (ids never written count 0), as
        ``int64`` whatever the stored width."""
        return self._counts[: self._max_id + 1].astype(np.int64)

    @property
    def write_amplification(self) -> float:
        """``disk writes / user points``; NaN before any ingestion."""
        if self.user_points == 0:
            return float("nan")
        return self.disk_writes / self.user_points

    def wa_timeline(self, window_points: int) -> tuple[np.ndarray, np.ndarray]:
        """WA measured per window of ``window_points`` user points.

        Mirrors Figure 10's methodology: "the total writing times of all
        data points were recorded for each 512 data points to write from
        the user's view".  Returns ``(arrival_index, wa)`` arrays where
        entry ``k`` covers user points ``(k*w, (k+1)*w]``.  A
        ``window_points`` that is not an integer ``>= 1`` (``bool``
        included) is an :class:`EngineError`.
        """
        if not is_integer(window_points) or window_points < 1:
            raise EngineError(
                f"window_points must be an integer >= 1, got {window_points!r:.80}"
            )
        if not self.events or self.user_points == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=float)
        edges = np.arange(
            window_points, self.user_points + window_points, window_points
        )
        arrivals = np.asarray([e.arrival_index for e in self.events])
        writes = np.asarray([e.disk_writes for e in self.events], dtype=float)
        if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
            # searchsorted needs sorted arrivals; engines append events
            # in arrival order, but merged/replayed logs may not be.
            order = np.argsort(arrivals, kind="stable")
            arrivals = arrivals[order]
            writes = writes[order]
        cumulative = np.concatenate(([0.0], np.cumsum(writes)))
        # Disk writes attributed to user points <= edge: all events whose
        # arrival index is <= edge.
        positions = np.searchsorted(arrivals, edges, side="right")
        cum_at_edges = cumulative[positions]
        window_writes = np.diff(np.concatenate(([0.0], cum_at_edges)))
        covered = np.minimum(edges, self.user_points)
        window_user = np.diff(np.concatenate(([0], covered)))
        valid = window_user > 0
        wa = np.full(edges.shape, np.nan)
        wa[valid] = window_writes[valid] / window_user[valid]
        return edges, wa
