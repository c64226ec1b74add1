"""The telemetry bus: structured events, span timers, metric shortcuts.

One :class:`Telemetry` instance carries a :class:`MetricsRegistry` plus a
set of sinks.  Producers call three things:

* ``telemetry.emit({...})`` — publish one structured event; the bus
  stamps a sequence number and a monotonic ``ts_ms``.
* ``with telemetry.span("merge", engine="pi_c") as span:`` — time a
  phase with the monotonic clock; on exit a ``{"type": "span"}`` event
  is emitted carrying ``duration_ms``, the nesting ``depth`` and any
  fields attached via ``span.set(...)``, and the duration is observed in
  the ``span.<name>.ms`` histogram.
* ``telemetry.count/gauge/observe`` — registry shortcuts.

The disabled bus (:data:`NULL_TELEMETRY`, what an engine given no
``telemetry=`` publishes to) keeps every call a constant-time no-op, so
instrumented hot paths cost one attribute check when observability is
not wanted.
"""

from __future__ import annotations

import time

from .metrics import MetricsRegistry
from .sinks import RingBufferSink, TelemetrySink

__all__ = [
    "Telemetry",
    "Span",
    "NULL_TELEMETRY",
    "configure_telemetry",
    "global_telemetry",
    "reset_global_telemetry",
]


class Span:
    """A timed phase; emitted as one event when the context exits."""

    __slots__ = ("_telemetry", "name", "fields", "_start", "duration_ms")

    def __init__(self, telemetry: "Telemetry", name: str, fields: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.fields = fields
        self._start = 0.0
        self.duration_ms = 0.0

    def set(self, **fields) -> None:
        """Attach result fields (counts, sizes) before the span closes."""
        self.fields.update(fields)

    def __enter__(self) -> "Span":
        telemetry = self._telemetry
        telemetry._depth += 1
        self._start = telemetry._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        telemetry = self._telemetry
        self.duration_ms = (telemetry._clock() - self._start) * 1_000.0
        telemetry._depth -= 1
        event = {
            "type": "span",
            "name": self.name,
            "duration_ms": self.duration_ms,
            "depth": telemetry._depth,
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        event.update(self.fields)
        telemetry.emit(event)
        telemetry.registry.histogram(
            f"span.{self.name}.ms", shard=telemetry.shard
        ).observe(self.duration_ms)
        return False


class _NullSpan:
    """Reusable no-op span for the disabled bus."""

    __slots__ = ()
    name = "null"
    duration_ms = 0.0
    fields: dict = {}

    def set(self, **fields) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Telemetry:
    """An event bus plus metrics registry shared by one engine/session."""

    def __init__(
        self,
        sinks: list[TelemetrySink] | None = None,
        registry: MetricsRegistry | None = None,
        enabled: bool = True,
        clock=time.monotonic,
        shard: str = "",
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sinks: list[TelemetrySink] = list(sinks) if sinks else []
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._depth = 0
        #: Shard label stamped on every event and metric this bus
        #: records (``""`` = unlabelled, the single-database default).
        self.shard = shard

    # -- events ---------------------------------------------------------------

    def emit(self, event: dict) -> None:
        """Publish ``event`` to every sink, stamped with ``seq``/``ts_ms``."""
        if not self.enabled:
            return
        stamped = {
            "seq": self._seq,
            "ts_ms": (self._clock() - self._epoch) * 1_000.0,
        }
        if self.shard and "shard" not in event:
            stamped["shard"] = self.shard
        stamped.update(event)
        self._seq += 1
        for sink in self.sinks:
            sink.write(stamped)

    def span(self, name: str, **fields) -> Span | _NullSpan:
        """Context manager timing one phase; no-op when disabled."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, dict(fields))

    # -- metric shortcuts -----------------------------------------------------

    def count(self, name: str, amount: int | float = 1) -> None:
        """Increment the counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.registry.counter(name, shard=self.shard).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` (no-op when disabled)."""
        if self.enabled:
            self.registry.gauge(name, shard=self.shard).set(value)

    def observe(self, name: str, value: float) -> None:
        """Observe ``value`` in the histogram ``name`` (no-op when disabled)."""
        if self.enabled:
            self.registry.histogram(name, shard=self.shard).observe(value)

    # -- shard views ----------------------------------------------------------

    def for_shard(self, shard: str) -> "Telemetry":
        """A labelled view of this bus for one shard.

        The view shares the parent's registry, sinks, clock and sequence
        numbers — it *is* the same bus — but every metric it records is
        keyed per shard (:func:`~repro.obs.metrics.labelled_name`) and
        every event it emits carries a ``shard`` field, so a fleet of
        engines reporting through per-shard views into one registry and
        one trace stays distinguishable shard by shard.
        The disabled bus returns itself (still a no-op).
        """
        if not self.enabled or not shard:
            return self
        return _ShardView(self, shard)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every sink (flushes file sinks)."""
        for sink in self.sinks:
            sink.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.enabled else "off"
        return f"Telemetry({state}, sinks={len(self.sinks)}, events={self._seq})"


class _ShardView(Telemetry):
    """Labelled window onto a parent bus (see :meth:`Telemetry.for_shard`).

    Delegates event publication to the parent (one shared ``seq``
    stream, so a fleet trace stays totally ordered) and records metrics
    into the parent's registry under the shard label.  Views do not own
    the sinks: :meth:`close` is a no-op.
    """

    def __init__(self, parent: Telemetry, shard: str) -> None:
        self._parent = parent
        self.enabled = parent.enabled
        self.registry = parent.registry
        self.sinks = parent.sinks
        self._clock = parent._clock
        self._epoch = parent._epoch
        self._depth = 0
        self.shard = shard

    def emit(self, event: dict) -> None:
        if not self.enabled:
            return
        if self.shard and "shard" not in event:
            event = {"shard": self.shard, **event}
        self._parent.emit(event)

    def close(self) -> None:
        """No-op: the parent bus owns the sinks."""


#: The shared disabled bus; every operation is a no-op.
NULL_TELEMETRY = Telemetry(enabled=False)


# -- process-wide bus ----------------------------------------------------------
#
# The experiment runner and registry report through a process-global bus
# so `repro <experiment> --trace out.jsonl` can capture wall-times without
# threading a Telemetry through every experiment signature.

_GLOBAL: Telemetry = NULL_TELEMETRY


def configure_telemetry(
    sink: TelemetrySink | None = None, registry: MetricsRegistry | None = None
) -> Telemetry:
    """Install (and return) an enabled process-global bus writing to
    ``sink`` (a fresh :class:`RingBufferSink` when none is given)."""
    global _GLOBAL
    if _GLOBAL.enabled:
        _GLOBAL.close()
    _GLOBAL = Telemetry(
        sinks=[sink if sink is not None else RingBufferSink()], registry=registry
    )
    return _GLOBAL


def global_telemetry() -> Telemetry:
    """The process-global bus (disabled unless configured)."""
    return _GLOBAL


def reset_global_telemetry() -> None:
    """Disable and release the process-global bus."""
    global _GLOBAL
    if _GLOBAL.enabled:
        _GLOBAL.close()
    _GLOBAL = NULL_TELEMETRY
