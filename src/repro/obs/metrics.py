"""Named metric instruments: counters, gauges, fixed-bucket histograms.

The registry is deliberately tiny and dependency-free: experiments run
millions of simulated points, so instruments must be cheap to update
(one dict lookup amortised to zero by caching the instrument object) and
cheap to snapshot.  The shape follows the Prometheus client conventions
(counter = monotone sum, gauge = last value, histogram = cumulative
buckets) without any of the label/exposition machinery this library
does not need.
"""

from __future__ import annotations

import bisect
import math

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "labelled_name",
    "split_labelled",
]


def labelled_name(name: str, shard: str = "") -> str:
    """Registry key for ``name`` under a shard label (Prometheus style).

    The empty label (the default everywhere) keys the metric by its bare
    name, so single-database code and every existing trace consumer see
    exactly the names they always did.  A non-empty label yields
    ``name{shard="..."}`` — a *distinct* key per shard, so the shards of
    a fleet that share one registry keep one row each rather than
    summing into one (:meth:`MetricsRegistry.shard_values` reads them
    back apart).
    """
    if not shard:
        return name
    if "{" in shard or '"' in shard:
        raise TelemetryError(f"invalid shard label {shard!r}")
    return f'{name}{{shard="{shard}"}}'


def split_labelled(key: str) -> tuple[str, str]:
    """Invert :func:`labelled_name`: ``(bare_name, shard)`` for a key."""
    if key.endswith('"}') and '{shard="' in key:
        name, _, label = key.partition('{shard="')
        return name, label[:-2]
    return key, ""

#: Default histogram buckets, tuned for millisecond durations: spans in
#: this library range from microsecond memtable inserts to multi-second
#: experiment runs.  The implicit final bucket is ``+inf``.
DEFAULT_BUCKETS = (0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0)


class Counter:
    """Monotonically increasing integer-or-float sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative; counters never decrease)."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative count/sum.

    ``buckets`` are upper bounds of the finite buckets; an implicit
    ``+inf`` bucket catches everything above the largest bound.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total", "max")

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets:
            raise TelemetryError(f"histogram {name!r} needs >= 1 bucket")
        bounds = tuple(float(b) for b in buckets)
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be strictly increasing: {bounds}"
            )
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observed value (NaN before the first observation)."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    def as_dict(self) -> dict:
        """Snapshot: bounds, per-bucket counts and the summary stats."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "max": self.max if self.count else float("nan"),
        }


class MetricsRegistry:
    """Get-or-create store of named instruments.

    Names are dotted paths (``ingest.points``, ``query.count``); a name
    registered as one instrument kind cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise TelemetryError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str, shard: str = "") -> Counter:
        """The counter called ``name`` (per ``shard`` when labelled)."""
        name = labelled_name(name, shard)
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, "counter")
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str, shard: str = "") -> Gauge:
        """The gauge called ``name`` (per ``shard`` when labelled)."""
        name = labelled_name(name, shard)
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, "gauge")
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        shard: str = "",
    ) -> Histogram:
        """The histogram called ``name`` (per ``shard`` when labelled)."""
        name = labelled_name(name, shard)
        instrument = self._histograms.get(name)
        if instrument is None:
            self._check_free(name, "histogram")
            instrument = self._histograms[name] = Histogram(name, buckets)
        return instrument

    def shard_values(self, name: str) -> dict[str, int | float]:
        """Per-shard values of the counter/gauge family ``name``.

        Returns ``{shard: value}`` over every label the family was
        recorded under; the unlabelled instrument appears under ``""``.
        """
        values: dict[str, int | float] = {}
        for table in (self._counters, self._gauges):
            for key, instrument in table.items():
                bare, shard = split_labelled(key)
                if bare == name:
                    values[shard] = instrument.value
        return values

    def as_dict(self) -> dict:
        """Plain-dict snapshot of every instrument (JSON-serialisable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Aligned plain-text dump of the registry (debug/report helper)."""
        lines = []
        if self._counters:
            lines.append("counters:")
            width = max(len(n) for n in self._counters)
            for name in sorted(self._counters):
                lines.append(f"  {name.ljust(width)}  {self._counters[name].value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(n) for n in self._gauges)
            for name in sorted(self._gauges):
                lines.append(f"  {name.ljust(width)}  {self._gauges[name].value:g}")
        if self._histograms:
            lines.append("histograms:")
            width = max(len(n) for n in self._histograms)
            for name in sorted(self._histograms):
                h = self._histograms[name]
                lines.append(
                    f"  {name.ljust(width)}  count={h.count} "
                    f"mean={h.mean:.4g} max={h.max if h.count else float('nan'):.4g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
