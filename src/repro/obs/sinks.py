"""Pluggable destinations for telemetry events.

Every sink consumes plain-dict events (already stamped with ``seq`` and
``ts_ms`` by the bus).  Three built-ins cover the library's needs:

* :class:`RingBufferSink` — bounded in-memory buffer, the default; tests
  and interactive sessions inspect ``sink.events``.
* :class:`JsonlFileSink` — one JSON object per line, append mode, so
  several engines (or several runs) can share one trace file.  This is
  the format ``repro report`` consumes.
* :class:`ConsoleSink` — JSON lines to a stream (stderr by default) for
  live tailing.

Sinks are selected by a spec string (``LsmConfig.telemetry_sink``):
``"memory"``, ``"memory:8192"``, ``"console"``, ``"jsonl:trace.jsonl"``.
"""

from __future__ import annotations

import json
import logging
import sys
from collections import deque
from typing import IO

from ..errors import ConfigError

__all__ = [
    "TelemetrySink",
    "RingBufferSink",
    "JsonlFileSink",
    "ConsoleSink",
    "parse_sink_spec",
    "make_sink",
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


class ConsoleSink(TelemetrySink):
    """JSON lines to a text stream (stderr unless told otherwise)."""

    def __init__(self, stream: IO[str] | None = None) -> None:
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        # Resolved lazily so pytest's stderr capture is honoured.
        return self._stream if self._stream is not None else sys.stderr

    def write(self, event: dict) -> None:
        print(encode_event(event), file=self.stream)


def parse_sink_spec(spec: str) -> tuple[str, str]:
    """Split and validate a sink spec into ``(kind, argument)``.

    Raises :class:`~repro.errors.ConfigError` on anything other than
    ``memory[:capacity]``, ``console`` or ``jsonl:<path>``.
    """
    if not isinstance(spec, str) or not spec:
        raise ConfigError(f"telemetry sink spec must be a non-empty string, got {spec!r}")
    kind, _, arg = spec.partition(":")
    if kind == "memory":
        if arg:
            try:
                capacity = int(arg)
            except ValueError:
                raise ConfigError(
                    f"memory sink capacity must be an integer, got {arg!r}"
                ) from None
            if capacity < 1:
                raise ConfigError(f"memory sink capacity must be >= 1, got {capacity}")
        return kind, arg
    if kind == "console":
        if arg:
            raise ConfigError(f"console sink takes no argument, got {arg!r}")
        return kind, ""
    if kind == "jsonl":
        if not arg:
            raise ConfigError("jsonl sink needs a path: 'jsonl:<path>'")
        return kind, arg
    raise ConfigError(
        f"unknown telemetry sink {spec!r}; expected 'memory[:capacity]', "
        "'console' or 'jsonl:<path>'"
    )


def make_sink(spec: str) -> TelemetrySink:
    """Build the sink described by ``spec`` (see :func:`parse_sink_spec`)."""
    kind, arg = parse_sink_spec(spec)
    if kind == "memory":
        return RingBufferSink(int(arg)) if arg else RingBufferSink()
    if kind == "console":
        return ConsoleSink()
    return JsonlFileSink(arg)
