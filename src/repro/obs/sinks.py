"""Pluggable destinations for telemetry events.

Every sink consumes plain-dict events (already stamped with ``seq`` and
``ts_ms`` by the bus).  Two built-ins cover the library's needs:

* :class:`RingBufferSink` — bounded in-memory buffer, the default; tests
  and interactive sessions inspect ``sink.events``.
* :class:`JsonlFileSink` — one JSON object per line, append mode, so
  several engines (or several runs) can share one trace file.  This is
  the format ``repro report`` consumes.

A sink is an object handed to a :class:`~repro.obs.telemetry.Telemetry`
bus (``Telemetry(sinks=[JsonlFileSink("trace.jsonl")])``); anything with
``write(event)`` and ``close()`` will do.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from typing import IO

from ..errors import ConfigError

__all__ = [
    "TelemetrySink",
    "RingBufferSink",
    "JsonlFileSink",
]

#: Default capacity of the in-memory ring buffer.
DEFAULT_RING_CAPACITY = 4096


def _json_default(value):
    """Serialise numpy scalars (and anything else with ``.item()``)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def encode_event(event: dict) -> str:
    """One event as a compact JSON line (numpy scalars coerced)."""
    return json.dumps(event, separators=(",", ":"), default=_json_default)


class TelemetrySink:
    """Interface: receive events, flush/close when the bus shuts down."""

    def write(self, event: dict) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (default: nothing to do)."""


class RingBufferSink(TelemetrySink):
    """Keep the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigError(f"ring buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        #: Events dropped because the buffer was full.
        self.dropped = 0

    def write(self, event: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    @property
    def events(self) -> list[dict]:
        """The buffered events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop every buffered event."""
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)


class JsonlFileSink(TelemetrySink):
    """Append one JSON line per event to ``path``.

    The file opens lazily on the first event and appends, so a sink that
    never fires creates no file and several engines may share a path.

    Telemetry must never take down an ingest: on the first
    :class:`OSError` (disk full, permission lost, path removed) the sink
    logs one warning, marks itself :attr:`disabled`, and silently drops
    every later event.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ConfigError("jsonl sink needs a non-empty path")
        self.path = path
        self._handle: IO[str] | None = None
        self.written = 0
        #: Events dropped after a write failure disabled the sink.
        self.errors = 0
        #: Set once a write fails; no further I/O is attempted.
        self.disabled = False

    def write(self, event: dict) -> None:
        if self.disabled:
            self.errors += 1
            return
        try:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(encode_event(event) + "\n")
            self._handle.flush()
        except OSError as error:
            self._disable(error)
            return
        self.written += 1

    def _disable(self, error: OSError) -> None:
        self.disabled = True
        self.errors += 1
        logging.getLogger(__name__).warning(
            "telemetry sink %s disabled after write failure: %s",
            self.path,
            error,
        )
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
