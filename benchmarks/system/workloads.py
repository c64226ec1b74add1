"""The four fleet workloads and the phases they are built from.

Every run has the same skeleton, so every end-to-end metric exists on
every workload: **set-up** (build the tuned fleet, three times, median
= ``setup_s``) -> untimed warm-up -> **ingest phase** -> **query
phase** -> untimed verification.  The workloads differ in which phase
carries the weight and how it is shaped:

=====================  ==============================  =========================
workload               ingest phase                    query phase
=====================  ==============================  =========================
fleet_ingest_durable   1500 x (128 x 16) synced, WAL   6000-query read-back probe
bulk_ingest_kernel     96 x (4096 x 16), volatile      6000-query read-back probe
read_storm             36 x (4096 x 16) bulk load      15 000-query storm
mixed_live             open loop, 1000 x 20 ms ticks   per tick, from due time
=====================  ==============================  =========================

Closed-loop phases run in eight slices.  On the two ingest workloads
the probe is interleaved — an eighth of its queries after each eighth
of the ingest calls — so both phases sample the whole run instead of
one short window each.  Inside every slice the machine-speed meter
(``speed.py``) runs its reference kernel about once per 10 ms, between
operations, and the slice's timings are credited with the speed it saw;
end-to-end timings are reported speed-corrected, wall-clock values sit
beside them in ``info.wall``.

Work is fixed, never time-boxed: the counts above are for ``--seconds
20`` and scale linearly with it, so for one (seed, seconds) every count
— and every metric derived from counts — repeats exactly.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import oracle
import repro.lsm.checkpoint  # noqa: F401  (lazily imported by the program; loaded
import repro.lsm.recovery  # noqa: F401   here so no timed call pays the import)
from repro.distributions import LogNormalDelay, UniformDelay
from repro.errors import EngineError
from repro.obs.metrics import split_labelled
from repro.obs.telemetry import Telemetry
from repro.serving.database import ShardedDatabase
from repro.workloads.synthetic import generate_synthetic
from speed import REFERENCE_MS, SpeedMeter, correction, kernel_seconds

N_SERIES = 16
N_SHARDS = 4
DT = 1000.0
SETUP_CHUNK = 2048
SMALL_CHUNK = 128
BULK_CHUNK = 4096
COLD_BLOCK = 256
RECOVER_REPEATS = 3
SLICES = 8
#: ``--seconds`` at which the counts in the module docstring hold:
#: mixed_live then measures for exactly 20 s, the closed loops do fixed
#: work that takes 6-10 s on the baseline VM (and once more, untimed, in
#: the rehearsal).
DESIGN_SECONDS = 20.0
STABILITY = {"wal_group_records": 8, "compaction_scheduler": True}

#: ``mixed_live`` arrival schedule, frozen (see README "The frozen rate"):
#: one 128 x 16-point batch every TICK_MS.
TICK_MS = 20.0
#: From-due ingest p99 a ladder rung must meet to count as sustained.
LADDER_LIMIT_MS = 50.0
LADDER_RATES = (0.5, 1.0, 2.0)

QUERY_MIX = (("q_recent", 0.5), ("q_panel", 0.2), ("q_hist_rows", 0.2), ("q_fleet_agg", 0.1))
PANEL_POOL = 64


@dataclass(frozen=True)
class Sizes:
    """Fixed work per phase for one ``--seconds`` value."""

    prefix: int            # set-up points per series
    setup_builds: int      # fleet builds per run; setup_s is their median
    warmup_calls: int      # untimed small/bulk calls before the ingest phase
    durable_calls: int
    tail_calls: int        # synced batches after the checkpoint (the WAL tail)
    bulk_calls: int
    load_calls: int        # read_storm bulk load
    storm_queries: int
    probe_queries: int
    warmup_queries: int
    ticks: int
    ladder_seconds: float


def sizes_for(seconds: float) -> Sizes:
    """Work counts scaled linearly from the ``--seconds 20`` design point."""
    scale = seconds / DESIGN_SECONDS

    def n(count: int, floor: int = 1) -> int:
        return max(floor, round(count * scale))

    prefix = max(2 * SETUP_CHUNK, round(65536 * min(1.0, scale)) // SETUP_CHUNK * SETUP_CHUNK)
    return Sizes(
        prefix=prefix,
        setup_builds=min(3, n(3)),
        warmup_calls=n(100, 2),
        durable_calls=n(1500, 16),
        tail_calls=n(100, 2),
        bulk_calls=n(96, 8),
        load_calls=n(36, 8),
        storm_queries=n(15000, 80),
        probe_queries=n(6000, 80),
        warmup_queries=n(500, 10),
        ticks=n(1000, 16),
        ladder_seconds=8.0 * scale,
    )


class CountedFsync:
    """Stand-in for ``os.fsync``: counts barriers, issues none.

    The sandbox disk's flush latency (0.6 ms median, 5 ms p99, shared)
    would otherwise be most of every durable call and all of its noise.
    Wall time therefore measures the program; the device cost is
    reported as an exact count.  Latencies are the sandbox's, not a
    device's.
    """

    def __init__(self) -> None:
        self.count = 0

    def __call__(self, fd) -> None:
        self.count += 1


def keep_freed_memory() -> bool:
    """Tell glibc's malloc never to return freed memory to the kernel.

    A first touch of a fresh page costs 3-100 us on the baseline VM,
    depending on what the host is doing: one bulk ingest pass over a
    growing heap spent 0.1 to 2.1 s of its 2-4 s in page faults, a
    second pass over the memory the first had freed under 0.1 s — but
    only while malloc kept that memory (by default it trims the heap top
    and unmaps every large block).  With this, a rehearsed phase (see
    :func:`set_up`) runs on memory that is already mapped.  False where
    the C library has no ``mallopt`` (the run says so in ``info``).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    trim_threshold, mmap_threshold = -1, -3  # M_* of <malloc.h>
    largest = 32 << 20  # glibc accepts no larger mmap threshold
    return bool(mallopt(trim_threshold, 2**31 - 1) and mallopt(mmap_threshold, largest))


@dataclass
class Run:
    """State of one (workload, seed, seconds, trace) run."""

    workload: str
    seed: int
    sizes: Sizes
    work_dir: str
    fsync: CountedFsync
    meter: SpeedMeter = field(default_factory=SpeedMeter)
    tracer: object | None = None      # trace.Tracer when --trace 1
    telemetry: Telemetry | None = None
    #: Reported values; end-to-end timings are speed-corrected.
    metrics: dict[str, float] = field(default_factory=dict)
    #: The same end-to-end timings as plain wall-clock values.
    wall: dict[str, float] = field(default_factory=dict)
    #: Sample count behind each percentile metric.
    samples: dict[str, int] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Busy seconds of the measured loops (denominator of ``*_frac``).
    busy_s: float = 0.0
    data: dict = field(default_factory=dict)
    names: list[str] = field(default_factory=list)
    #: Arrivals ingested so far, the same for every series.
    pos: int = 0
    #: Running maximum of each series' generation times (see frontier()).
    runmax: dict = field(default_factory=dict)
    #: Largest total scheduler backlog seen after any call of the phase.
    backlog_points_max: int = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- timings -------------------------------------------------------------------


class Timings:
    """Per-operation wall seconds, each with its slice's speed correction."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.factor: list[float] = []

    def credit(self, factor: float) -> None:
        """Give every operation added since the last credit ``factor``."""
        self.factor.extend([factor] * (len(self.seconds) - len(self.factor)))

    def wall(self) -> np.ndarray:
        return np.asarray(self.seconds)

    def corrected(self) -> np.ndarray:
        return np.asarray(self.seconds) * np.asarray(self.factor)


def supported(samples: int, q: float) -> bool:
    """The guide's rule: at least ten samples lie beyond the percentile."""
    return samples * (1.0 - q / 100.0) >= 10.0


def segment_rate(seconds: np.ndarray, units_per_op: float) -> float:
    """Median over ``SLICES`` equal-work segments of units per busy second.

    A burst of interference slows one segment, not the median; every
    segment still spans many flush/merge cycles.
    """
    parts = np.array_split(seconds, max(1, min(SLICES, seconds.size // 8)))
    return statistics.median(part.size * units_per_op / float(part.sum()) for part in parts)


def quarter_tail(seconds: np.ndarray, q: float) -> float:
    """Median over the phase's four quarters of each quarter's q-th
    percentile.

    One rare landing stall inflates the plain p99 of a whole run by an
    order of magnitude on the seeds that happen to contain it; the
    typical quarter's tail does not.  The stall itself stays visible in
    ``ingest_batch_p99_ms`` and ``loadgen.max_lateness_ms``.
    """
    return statistics.median(
        float(np.percentile(quarter, q)) for quarter in np.array_split(seconds, 4)
    )


def ingest_timing_metrics(run: Run, timings: Timings, points_per_call: int) -> None:
    """``ingest_*`` metrics of a closed-loop phase, corrected and wall."""
    for target, seconds in ((run.metrics, timings.corrected()), (run.wall, timings.wall())):
        target["ingest_points_per_s"] = segment_rate(seconds, points_per_call)
        target["ingest_batch_p50_ms"] = float(np.percentile(seconds, 50)) * 1e3
        target["ingest_batch_p99_ms"] = float(np.percentile(seconds, 99)) * 1e3
    run.samples["ingest_batch_p50_ms"] = run.samples["ingest_batch_p99_ms"] = len(
        timings.seconds
    )


def query_timing_metrics(run: Run, log: "QueryLog") -> None:
    """``query_*`` metrics, corrected and wall; per-class medians (wall)."""
    timings = log.timings
    for target, seconds in ((run.metrics, timings.corrected()), (run.wall, timings.wall())):
        target["query_per_s"] = segment_rate(seconds, 1.0)
        target["query_p50_ms"] = float(np.percentile(seconds, 50)) * 1e3
        target["query_p99_ms"] = quarter_tail(seconds, 99) * 1e3
    count = len(timings.seconds)
    run.samples["query_p50_ms"] = count
    run.samples["query_p99_ms"] = count // 4
    run.metrics["read_amplification"] = log.disk_points_read / log.result_points
    classes = np.asarray(log.classes)
    wall = timings.wall()
    for cls, _ in QUERY_MIX:
        mine = wall[classes == cls]
        if mine.size:
            name = f"serving.federation.{cls}_p50_us"
            run.metrics[name] = float(np.percentile(mine, 50)) * 1e6
            run.samples[name] = int(mine.size)
    run.info["query_counts"] = {cls: int((classes == cls).sum()) for cls, _ in QUERY_MIX}


# -- small helpers -------------------------------------------------------------


def counters(run: Run) -> dict[str, float]:
    """Telemetry counters summed over shard labels (empty when untraced)."""
    if run.telemetry is None:
        return {}
    totals: dict[str, float] = {}
    for key, value in run.telemetry.registry.as_dict()["counters"].items():
        bare, _ = split_labelled(key)
        totals[bare] = totals.get(bare, 0) + value
    return totals


def engines(fleet) -> list:
    return [engine for _, engine in oracle.fleet_engines(fleet)]


def batch_at(run: Run, lo: int, hi: int) -> list[tuple]:
    data = run.data
    return [(name, data[name].tg[lo:hi], data[name].ta[lo:hi]) for name in run.names]


def slice_edges(count: int) -> list[tuple[int, int]]:
    """``SLICES`` contiguous ``(first, stop)`` ranges covering ``count``."""
    edges = [round(count * k / SLICES) for k in range(SLICES + 1)]
    return list(zip(edges[:-1], edges[1:]))


@contextmanager
def traced_phase(run: Run, name: str):
    """Spans are recorded (as phase ``name``) only inside this block."""
    tracer = run.tracer
    if tracer is not None:
        tracer.phase(name)
        tracer.enabled = True
    try:
        yield
    finally:
        if tracer is not None:
            tracer.enabled = False


# -- set-up --------------------------------------------------------------------


#: ``(sigma, mu - log dt)`` of the eight disordered series: lognormal
#: delays inside the ranges ``generate_fleet`` draws from, but on fixed
#: cells well clear of Algorithm 1's decision boundary, so every seed
#: gives the same regime — five series retune to pi_s ("s"), three stay
#: pi_c ("c") — and only the sampled delays change.  With the cells
#: drawn at random, one to five series separated depending on the seed
#: and bulk ingest throughput moved 40% with it.
DISORDERED_CELLS = (
    (2.2, -0.5),   # s
    (2.2, 0.5),    # s
    (1.2, 0.0),    # c
    (1.95, 0.0),   # s
    (1.95, 1.0),   # s
    (1.45, -0.5),  # c
    (1.7, -1.0),   # c
    (1.7, 1.0),    # s
)


def generate(run: Run, points_per_series: int) -> None:
    """The run's inputs: a pure function of ``--seed`` and the sizes.

    The Section VI fleet shape of ``repro.workloads.generate_fleet``
    (half the series disordered, half with sub-interval jitter), built
    from the same public pieces with the delay laws pinned.
    """
    rng = np.random.default_rng(run.seed)
    run.data = {}
    for index in range(N_SERIES):
        name = f"series-{index:04d}"
        if index < len(DISORDERED_CELLS):
            sigma, offset = DISORDERED_CELLS[index]
            delay = LogNormalDelay(mu=math.log(DT) + offset, sigma=sigma)
        else:
            delay = UniformDelay(low=0.0, high=0.5 * DT)
        run.data[name] = generate_synthetic(
            points_per_series, dt=DT, delay=delay,
            seed=int(rng.integers(0, 2**31)), name=name,
        )
    run.names = list(run.data)


def build_fleet(run: Run, durable: bool, tag: str):
    """Create the fleet, ingest the prefix, retune once.

    Returns ``(fleet, build seconds, retune seconds, policies)``.  The
    build is the sum of its separately timed calls, so that the speed
    meter can read between them.
    """
    clock = time.perf_counter
    meter = run.meter
    meter.sample()
    start = clock()
    fleet = ShardedDatabase(
        n_shards=N_SHARDS,
        memory_budget_per_series=512,
        sstable_size=512,
        auto_tune=True,
        telemetry=run.telemetry,
        durability_dir=os.path.join(run.work_dir, tag) if durable else None,
        stability=STABILITY if durable else None,
    )
    build_s = clock() - start
    for lo in range(0, run.sizes.prefix, SETUP_CHUNK):
        batch = batch_at(run, lo, lo + SETUP_CHUNK)
        meter.tick()
        start = clock()
        fleet.ingest_batch(batch, sync=False)
        build_s += clock() - start
    meter.tick()
    start = clock()
    switched = fleet.retune(min_observations=2048)
    retune_s = clock() - start
    return fleet, build_s + retune_s, retune_s, switched


def set_up(run: Run, durable: bool, chunk: int, calls: int, queries: int):
    """Build the fleet ``sizes.setup_builds`` times (3); keep the last.

    ``setup_s`` is the median build, so one cold first build (imports,
    first-touch page faults) does not decide it.  The first build then
    rehearses, untimed, what the run will measure on the last — its
    ``calls`` ingest calls of ``chunk`` points, then ``queries`` queries
    against the full fleet, whose temporaries are the largest.  The heap
    grows to its final size there, and the measured phases reuse its
    pages instead of faulting new ones in (:func:`keep_freed_memory`).
    """
    builds, corrected, retunes = [], [], []
    fleet = None
    for k in range(run.sizes.setup_builds):
        fleet = None
        gc.collect()  # the discarded build's engines are reference cycles
        fleet, build_s, retune_s, switched = build_fleet(run, durable, f"fleet-{k}")
        builds.append(build_s)
        corrected.append(build_s * run.meter.credit())
        retunes.append(retune_s)
        if k == 0 and run.sizes.setup_builds > 1:
            run.pos = run.sizes.prefix
            warm_up_ingest(run, fleet, chunk, calls, sync=durable)
            rng = np.random.default_rng([run.seed, 0])
            for query in make_queries(run, rng, queries, panel_pool(run, rng)):
                run_query(fleet, query)
    run.pos = run.sizes.prefix
    run.metrics["setup_s"] = statistics.median(corrected)
    run.wall["setup_s"] = statistics.median(builds)
    run.metrics["core.tuning.retune_s"] = statistics.median(retunes)
    run.metrics["core.tuning.series_separated"] = float(
        sum(engine.policy_name == "pi_s" for engine in engines(fleet))
    )
    run.info["policies"] = sorted(switched.values())
    return fleet


# -- ingest phases -------------------------------------------------------------


def warm_up_ingest(run: Run, fleet, chunk: int, calls: int, sync: bool) -> None:
    for _ in range(calls):
        fleet.ingest_batch(batch_at(run, run.pos, run.pos + chunk), sync=sync)
        run.pos += chunk


class IngestMarks:
    """Engine-side counts before/after an ingest phase (all exact)."""

    def __init__(self, run: Run, fleet) -> None:
        self.engines = engines(fleet)
        self.events = [len(e.stats.events) for e in self.engines]
        self.fsyncs = run.fsync.count
        self.wal_bytes = self._wal("size_bytes")
        self.groups = self._wal("groups_committed")
        self.records = self._wal("records_committed")
        self.stalls = sum(e.admission.stall_count for e in self.engines if e.admission)
        self.shed = sum(e.admission.shed_batches for e in self.engines if e.admission)

    def _wal(self, attr: str) -> int:
        total = 0
        for engine in self.engines:
            if engine.wal is not None:
                value = getattr(engine.wal, attr)
                total += value() if callable(value) else value
        return total


def note_backlog(run: Run, schedulers: list) -> None:
    """Track the largest total scheduler backlog seen after any call."""
    if schedulers:
        run.backlog_points_max = max(
            run.backlog_points_max, sum(s.backlog_points for s in schedulers)
        )


def closed_loop_ingest(run: Run, fleet, chunk: int, first: int, stop: int, sync: bool,
                       timings: Timings) -> None:
    """Calls ``first .. stop`` of a phase, back to back; one speed credit."""
    tracer = run.tracer
    meter = run.meter
    schedulers = [e.scheduler for e in engines(fleet) if e.scheduler is not None]
    clock = time.perf_counter
    seconds = []
    with traced_phase(run, "ingest"):
        metered = meter.spent
        loop_start = clock()
        meter.sample()
        for call in range(first, stop):
            batch = batch_at(run, run.pos, run.pos + chunk)
            meter.tick()
            if tracer is not None:
                tracer.op = call
            start = clock()
            try:
                fleet.ingest_batch(batch, sync=sync)
            except EngineError as exc:  # a shed or otherwise refused batch
                run.fail(f"ingest call {call}: {exc}")
            seconds.append(clock() - start)
            run.pos += chunk
            note_backlog(run, schedulers)
        run.busy_s += clock() - loop_start - (meter.spent - metered)
    run.attempted += stop - first
    timings.seconds.extend(seconds)
    timings.credit(meter.credit())


def count_metrics(run: Run, fleet, marks: IngestMarks, points: int) -> None:
    """Exact counts of a finished ingest phase."""
    after = IngestMarks(run, fleet)
    stats = [e.stats for e in after.engines]
    run.metrics["write_amplification"] = (
        sum(s.disk_writes for s in stats) / sum(s.user_points for s in stats)
    )
    fsyncs = after.fsyncs - marks.fsyncs
    run.metrics["fsyncs_per_kpoint"] = fsyncs / (points / 1000.0)
    run.metrics["lsm.wal.fsyncs"] = float(fsyncs)
    groups = after.groups - marks.groups
    run.metrics["lsm.wal.groups_committed"] = float(groups)
    run.metrics["lsm.wal.coalescing_ratio"] = (
        (after.records - marks.records) / groups if groups else 0.0
    )
    run.metrics["lsm.wal.bytes_per_point"] = (after.wal_bytes - marks.wal_bytes) / points
    run.metrics["lsm.backpressure.throttled_batches"] = float(after.stalls - marks.stalls)
    run.metrics["lsm.backpressure.shed_batches"] = float(after.shed - marks.shed)
    new_events = [
        event
        for engine, first in zip(after.engines, marks.events)
        for event in engine.stats.events[first:]
    ]
    run.metrics["lsm.policies.flushes"] = float(sum(e.kind == "flush" for e in new_events))
    run.metrics["lsm.policies.merges"] = float(sum(e.kind == "merge" for e in new_events))
    run.metrics["lsm.policies.points_rewritten"] = float(
        sum(e.rewritten_points for e in new_events)
    )
    schedulers = [e.scheduler for e in after.engines if e.scheduler is not None]
    run.metrics["lsm.scheduler.max_batch_work_points"] = float(
        max((s.max_batch_work_points for s in schedulers), default=0)
    )
    run.metrics["lsm.scheduler.backlog_points_max"] = float(run.backlog_points_max)
    run.info["ingest_points"] = points
    run.info["pi_s_series"] = sum(e.policy_name == "pi_s" for e in after.engines)


# -- queries -------------------------------------------------------------------


def panel_pool(run: Run, rng) -> list[tuple]:
    """64 fixed (series, window) dashboard panels inside the set-up prefix."""
    span = (run.sizes.prefix - 1200) * DT
    pool = []
    for _ in range(PANEL_POOL):
        lo = float(rng.integers(0, int(span / DT))) * DT
        pool.append(("q_panel", run.names[rng.integers(N_SERIES)], lo, lo + 1000 * DT))
    return pool


def frontier(run: Run, name: str, pos: int) -> float:
    """Newest generation time among the first ``pos`` arrivals of ``name``."""
    if name not in run.runmax:
        run.runmax[name] = np.maximum.accumulate(run.data[name].tg)
    return float(run.runmax[name][pos - 1])


def make_query(run: Run, rng, cls: str, pos: int, pool: list[tuple]) -> tuple:
    """One ``(class, series or None, lo, hi)`` against the first ``pos`` arrivals."""
    if cls == "q_panel":
        return pool[rng.integers(len(pool))]
    if cls == "q_fleet_agg":
        span = pos * DT
        lo = float(rng.integers(0, int(0.9 * pos))) * DT
        return (cls, None, lo, lo + 0.1 * span)
    name = run.names[rng.integers(N_SERIES)]
    if cls == "q_recent":
        hi = frontier(run, name, pos)
        return (cls, name, hi - float(rng.integers(20, 201)) * DT, hi)
    lo = float(rng.integers(0, max(1, pos - 500))) * DT  # q_hist_rows
    return (cls, name, lo, lo + 500 * DT)


def make_queries(run: Run, rng, count: int, pool: list[tuple]) -> list[tuple]:
    """``count`` queries in the fixed class mix, shuffled."""
    classes = []
    for cls, share in QUERY_MIX:
        classes += [cls] * round(count * share)
    classes = (classes + ["q_recent"] * count)[:count]
    rng.shuffle(classes)
    return [make_query(run, rng, cls, run.pos, pool) for cls in classes]


def run_query(fleet, query: tuple):
    cls, names, lo, hi = query
    if cls == "q_recent":
        return fleet.query_range(names, lo, hi)
    if cls == "q_hist_rows":
        return fleet.query_range(names, lo, hi, collect=True)
    return fleet.query_aggregate(names, lo, hi)  # q_panel, q_fleet_agg


class QueryLog:
    """Per-query timings plus the counts read amplification needs."""

    def __init__(self) -> None:
        self.timings = Timings()
        self.classes: list[str] = []
        self.disk_points_read = 0
        self.result_points = 0
        self.aggregate_points = 0
        #: ``(query, result, arrivals ingested when it ran)`` one in 40.
        self.sampled: list[tuple] = []

    def record(self, query: tuple, result, seconds: float, pos: int) -> None:
        index = len(self.classes)
        self.timings.seconds.append(seconds)
        self.classes.append(query[0])
        if hasattr(result, "disk_points_read"):
            self.disk_points_read += result.disk_points_read
            self.result_points += result.result_points
        else:
            self.aggregate_points += result.count
        if index % oracle.SAMPLE_STRIDE == 0:
            self.sampled.append((query, result, pos))


def closed_loop_queries(run: Run, fleet, queries: list[tuple], log: QueryLog) -> None:
    """``queries`` back to back; one speed credit for the slice."""
    tracer = run.tracer
    meter = run.meter
    clock = time.perf_counter
    with traced_phase(run, "query"):
        metered = meter.spent
        loop_start = clock()
        meter.sample()
        for query in queries:
            meter.tick()
            if tracer is not None:
                tracer.op = len(log.classes)
            start = clock()
            result = run_query(fleet, query)
            log.record(query, result, clock() - start, run.pos)
        run.busy_s += clock() - loop_start - (meter.spent - metered)
    run.attempted += len(queries)
    log.timings.credit(meter.credit())


def verify_queries(run: Run, log: QueryLog) -> None:
    """Brute-force re-answer of the sampled queries (untimed)."""
    for query, result, pos in log.sampled:
        prefix = dict.fromkeys(run.names, pos)
        problem = oracle.check_query(run.data, run.names, prefix, query, result)
        if problem is not None:
            run.fail(problem)
    run.info["queries_verified"] = len(log.sampled)


def closed_loop_phases(run: Run, fleet, rng, chunk: int, calls: int, sync: bool,
                       queries: int, interleave: bool,
                       between=lambda: None) -> QueryLog:
    """The measured ingest and query phases of a closed-loop workload.

    Both run in ``SLICES`` slices, each credited with the machine speed
    read inside it.  With ``interleave`` a query slice follows every
    ingest slice (the read-back probe of the ingest workloads: ingest
    and query timings both sample the whole run, and the probe reads a
    live fleet); without, all ingest slices come first, then
    ``between()`` (read_storm goes half cold there), then the queries.
    """
    pool = panel_pool(run, rng)
    if interleave:
        for query in make_queries(run, rng, run.sizes.warmup_queries, pool):
            run_query(fleet, query)
    marks = IngestMarks(run, fleet)
    before = counters(run)
    ingest = Timings()
    log = QueryLog()
    per_slice = queries // SLICES
    usage = resource.getrusage(resource.RUSAGE_SELF)
    for first, stop in slice_edges(calls):
        closed_loop_ingest(run, fleet, chunk, first, stop, sync, ingest)
        if interleave:
            closed_loop_queries(run, fleet, make_queries(run, rng, per_slice, pool), log)
    after = resource.getrusage(resource.RUSAGE_SELF)
    # What the rehearsal is for: both should be small beside the phase.
    run.info["ingest_phase_page_faults"] = after.ru_minflt - usage.ru_minflt
    run.info["ingest_phase_sys_s"] = after.ru_stime - usage.ru_stime
    ingest_timing_metrics(run, ingest, chunk * N_SERIES)
    count_metrics(run, fleet, marks, calls * chunk * N_SERIES)
    if not interleave:
        between()
        for query in make_queries(run, rng, run.sizes.warmup_queries, pool):
            run_query(fleet, query)
        before = counters(run)
        for _ in range(SLICES):
            closed_loop_queries(run, fleet, make_queries(run, rng, per_slice, pool), log)
    query_timing_metrics(run, log)
    telemetry_metrics(run, before, log)
    return log


def telemetry_metrics(run: Run, before: dict, log: QueryLog) -> None:
    """Read-path ratios from the counters the program publishes (traced runs)."""
    if run.telemetry is None:
        return
    after = counters(run)

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    queries = delta("federation.queries")
    pruned_shards = ratio(delta("federation.shards_pruned"), queries)
    metrics = run.metrics
    metrics["serving.router.shards_pruned_per_query"] = pruned_shards
    metrics["serving.federation.fanout_mean"] = N_SHARDS - pruned_shards
    hits = delta("federation.cache_hits")
    metrics["serving.federation.cache_hit_rate"] = ratio(
        hits, hits + delta("federation.cache_misses")
    )
    metrics["lsm.pruning.tables_consulted_per_query"] = ratio(
        delta("query.tables_consulted"), delta("query.count")
    )
    pruned = delta("query.tables_pruned")
    metrics["lsm.pruning.tables_pruned_frac"] = ratio(
        pruned, pruned + delta("query.files_touched")
    )
    metrics["lsm.blocks.blocks_skipped_per_query"] = ratio(
        delta("query.blocks_skipped"), queries
    )
    # Points whose contribution came from block statistics alone, as a
    # share of all aggregated points (COLD_BLOCK-point blocks).
    metrics["query.aggregation.blocks_stat_answered_frac"] = ratio(
        delta("query.blocks_stat_answered") * COLD_BLOCK, log.aggregate_points
    )


# -- verification and bookkeeping ----------------------------------------------


def verify_fleet(run: Run, fleet) -> None:
    expected = dict.fromkeys(run.names, run.pos)
    for problem in oracle.check_fleet(fleet, expected, run.metrics["write_amplification"]):
        run.fail(problem)


def finish(run: Run) -> None:
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.metrics["failed_ops_frac"] = run.failed / max(1, run.attempted)
    run.metrics["obs.machine_speed"] = statistics.median(run.meter.readings)
    run.info["machine_speed_min_max"] = [min(run.meter.readings), max(run.meter.readings)]
    shutil.rmtree(run.work_dir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(run.work_dir))  # .work/, unless another run is using it
    except OSError:
        pass


def disk_bytes(path: str) -> tuple[int, int]:
    """``(all bytes, checkpoint bytes)`` under ``path``."""
    total = checkpoints = 0
    for root, _, files in os.walk(path):
        for name in files:
            size = os.path.getsize(os.path.join(root, name))
            total += size
            if name.endswith(".ckpt"):
                checkpoints += size
    return total, checkpoints


# -- the closed-loop workloads -------------------------------------------------


def fleet_ingest_durable(run: Run) -> None:
    sizes = run.sizes
    calls = sizes.warmup_calls + sizes.durable_calls + sizes.tail_calls
    generate(run, sizes.prefix + calls * SMALL_CHUNK)
    rng = np.random.default_rng([run.seed, 1])
    fleet = set_up(run, True, SMALL_CHUNK, sizes.warmup_calls + sizes.durable_calls,
                   sizes.probe_queries // SLICES)
    warm_up_ingest(run, fleet, SMALL_CHUNK, sizes.warmup_calls, sync=True)
    log = closed_loop_phases(run, fleet, rng, SMALL_CHUNK, sizes.durable_calls, True,
                             sizes.probe_queries, interleave=True)
    verify_queries(run, log)
    verify_fleet(run, fleet)

    # Checkpoint, write a WAL tail, crash, recover.
    with traced_phase(run, "checkpoint"):
        start = time.perf_counter()
        fleet.checkpoint_all()
        run.metrics["lsm.checkpoint.checkpoint_all_s"] = time.perf_counter() - start
    total, checkpoints = disk_bytes(fleet.durability_dir)
    points = run.pos * N_SERIES
    run.metrics["disk_bytes_per_point"] = total / points
    run.metrics["lsm.checkpoint.bytes_per_point"] = checkpoints / points
    warm_up_ingest(run, fleet, SMALL_CHUNK, sizes.tail_calls, sync=True)
    run.metrics["lsm.recovery.wal_tail_points"] = float(
        sizes.tail_calls * SMALL_CHUNK * N_SERIES
    )
    durability_dir = fleet.durability_dir
    acknowledged = dict.fromkeys(run.names, run.pos)
    # The crash: the fleet is abandoned, never closed; group frames
    # still pending in memory die with it.
    del fleet
    gc.collect()
    recoveries, corrected = [], []
    for attempt in range(RECOVER_REPEATS):
        run.meter.sample(8)  # one call: readings before and after it
        with traced_phase(run, "recover"):
            start = time.perf_counter()
            try:
                recovered = ShardedDatabase.recover(durability_dir)
            except EngineError as exc:
                run.fail(f"recovery {attempt}: {exc}")
                recovered = None
            recoveries.append(time.perf_counter() - start)
        run.meter.sample(8)
        corrected.append(recoveries[-1] * run.meter.credit())
        run.attempted += 1
        if recovered is not None and attempt == RECOVER_REPEATS - 1:
            for problem in oracle.check_recovered(recovered, acknowledged):
                run.fail(problem)
        del recovered
        gc.collect()
    run.metrics["recover_s"] = statistics.median(corrected)
    run.wall["recover_s"] = statistics.median(recoveries)
    run.info["recoveries_s"] = recoveries


def bulk_ingest_kernel(run: Run) -> None:
    sizes = run.sizes
    warmup = sizes.warmup_calls // 16 + 1
    generate(run, sizes.prefix + (warmup + sizes.bulk_calls) * BULK_CHUNK)
    rng = np.random.default_rng([run.seed, 2])
    fleet = set_up(run, False, BULK_CHUNK, warmup + sizes.bulk_calls,
                   sizes.probe_queries // SLICES)
    warm_up_ingest(run, fleet, BULK_CHUNK, warmup, sync=False)
    log = closed_loop_phases(run, fleet, rng, BULK_CHUNK, sizes.bulk_calls, False,
                             sizes.probe_queries, interleave=True)
    verify_queries(run, log)
    verify_fleet(run, fleet)


def read_storm(run: Run) -> None:
    sizes = run.sizes
    generate(run, sizes.prefix + sizes.load_calls * BULK_CHUNK)
    rng = np.random.default_rng([run.seed, 3])
    fleet = set_up(run, False, BULK_CHUNK, sizes.load_calls, sizes.storm_queries // SLICES)

    def go_half_cold() -> None:
        # Recent points stay in MemTables: no flush_all.
        start = time.perf_counter()
        for name in run.names[::2]:
            fleet.database_for(name).series(name).engine.convert_cold(block_size=COLD_BLOCK)
        run.metrics["lsm.blocks.convert_cold_s"] = time.perf_counter() - start

    log = closed_loop_phases(run, fleet, rng, BULK_CHUNK, sizes.load_calls, False,
                             sizes.storm_queries, interleave=False, between=go_half_cold)
    verify_queries(run, log)
    verify_fleet(run, fleet)


# -- mixed_live: the open loop -------------------------------------------------


def wait_until(due: float) -> float:
    """Sleep, then spin the last 300 us, until ``due``; returns idle seconds."""
    clock = time.perf_counter
    start = clock()
    remaining = due - start
    if remaining > 0.0005:
        time.sleep(remaining - 0.0003)
    while clock() < due:
        pass
    return max(0.0, clock() - start)


def tick_plan(run: Run, rng, first_pos: int, ticks: int, pool: list[tuple]) -> list[list]:
    """Queries of every tick, windows ending at that tick's ingest frontier."""
    plan = []
    for tick in range(ticks):
        pos = first_pos + (tick + 1) * SMALL_CHUNK
        queries = [make_query(run, rng, "q_recent", pos, pool) for _ in range(4)]
        queries.append(make_query(run, rng, "q_panel", pos, pool))
        if tick % 4 == 3:
            queries.append(make_query(run, rng, "q_fleet_agg", pos, pool))
        plan.append(queries)
    return plan


def open_loop(run: Run, fleet, ticks: int, tick_s: float, plan: list[list],
              log: QueryLog, phase: str):
    """Issue tick ``k`` at ``t0 + k * tick_s`` regardless of completions.

    Every latency is completion minus *due* time, so a stall is charged
    to everything it delayed.  When a tick leaves at least 4 ms idle
    before the next is due, one pass of the reference kernel runs in the
    gap: the machine's speed is read about once per tick without
    touching the schedule.  Returns ``(ingest latencies, lateness, wall
    seconds, kernel seconds per tick (NaN where no gap))``.
    """
    tracer = run.tracer
    clock = time.perf_counter
    ingest_latency = np.empty(ticks)
    lateness = np.empty(ticks)
    kernel = np.full(ticks, np.nan)
    schedulers = [e.scheduler for e in engines(fleet) if e.scheduler is not None]
    idle = 0.0
    with traced_phase(run, phase):
        t0 = clock() + 0.005
        for tick in range(ticks):
            batch = batch_at(run, run.pos, run.pos + SMALL_CHUNK)
            due = t0 + tick * tick_s
            idle += wait_until(due)
            if tracer is not None:
                tracer.op = tick
            lateness[tick] = clock() - due
            try:
                fleet.ingest_batch(batch, sync=True)
            except EngineError as exc:
                run.fail(f"tick {tick}: {exc}")
            ingest_latency[tick] = clock() - due
            run.pos += SMALL_CHUNK
            note_backlog(run, schedulers)
            query_due = due + tick_s / 2
            idle += wait_until(query_due)
            for query in plan[tick]:
                result = run_query(fleet, query)
                log.record(query, result, clock() - query_due, run.pos)
            if due + tick_s - clock() > 0.004:
                kernel[tick] = kernel_seconds()
                idle += kernel[tick]
        wall = clock() - t0
    run.busy_s += wall - idle
    run.attempted += ticks + sum(len(queries) for queries in plan)
    return ingest_latency, lateness, wall, kernel


def slice_corrections(run: Run, kernel: np.ndarray) -> np.ndarray:
    """Speed correction per tick, from the median gap reading of the
    tick's slice (of ``SLICES``), or from the meter's last reading for a
    slice without gaps."""
    factors = np.empty(kernel.size)
    for first, stop in slice_edges(kernel.size):
        readings = kernel[first:stop]
        readings = readings[~np.isnan(readings)]
        speed = (
            REFERENCE_MS / 1e3 / float(np.median(readings)) if readings.size else run.meter.last
        )
        run.meter.note(speed)
        factors[first:stop] = correction(speed)
    return factors


def ladder(run: Run, fleet, rng, pool: list[tuple]) -> float:
    """Highest of three fixed rates that holds the latency limit.

    A rung passes when its from-due ingest p99 is within
    ``LADDER_LIMIT_MS`` and the generator's lateness is not growing
    (last tenth of the rung no later than the first tenth, plus 1 ms).
    """
    # Rungs are diagnostic: kept out of the span file and the busy time.
    tracer, run.tracer, busy_s = run.tracer, None, run.busy_s
    sustained = 0.0
    rungs = []
    for rate in LADDER_RATES:
        tick_s = TICK_MS / 1e3 / rate
        ticks = max(16, round(run.sizes.ladder_seconds / tick_s))
        plan = tick_plan(run, rng, run.pos, ticks, pool)
        latency, lateness, _, _ = open_loop(run, fleet, ticks, tick_s, plan, QueryLog(), "ladder")
        tenth = max(1, ticks // 10)
        p99_ms = float(np.percentile(latency, 99)) * 1e3
        growing = lateness[-tenth:].mean() > lateness[:tenth].mean() + 1e-3
        points_per_s = SMALL_CHUNK * N_SERIES / tick_s
        passed = p99_ms <= LADDER_LIMIT_MS and not growing
        rungs.append({"points_per_s": points_per_s, "p99_ms": p99_ms,
                      "lateness_growing": bool(growing), "ticks": ticks, "passed": passed})
        if passed:
            sustained = points_per_s
    run.tracer, run.busy_s = tracer, busy_s
    run.info["ladder"] = rungs
    return sustained


def mixed_live(run: Run) -> None:
    sizes = run.sizes
    tick_s = TICK_MS / 1e3
    ladder_ticks = 0
    if run.tracer is not None:
        ladder_ticks = sum(
            max(16, round(sizes.ladder_seconds / (tick_s / rate))) for rate in LADDER_RATES
        )
    calls = sizes.warmup_calls + sizes.ticks + ladder_ticks
    generate(run, sizes.prefix + calls * SMALL_CHUNK)
    rng = np.random.default_rng([run.seed, 4])
    fleet = set_up(run, True, SMALL_CHUNK, sizes.warmup_calls + sizes.ticks,
                   sizes.warmup_queries)
    warm_up_ingest(run, fleet, SMALL_CHUNK, sizes.warmup_calls, sync=True)
    pool = panel_pool(run, rng)
    for query in make_queries(run, rng, sizes.warmup_queries, pool):
        run_query(fleet, query)
    plan = tick_plan(run, rng, run.pos, sizes.ticks, pool)
    marks = IngestMarks(run, fleet)
    before = counters(run)
    log = QueryLog()
    run.meter.sample(8)
    run.meter.credit()  # slice_corrections' fallback for a slice without idle gaps
    latency, lateness, wall, kernel = open_loop(run, fleet, sizes.ticks, tick_s, plan, log,
                                                "ingest")
    factors = slice_corrections(run, kernel)
    ingest = Timings()
    ingest.seconds, ingest.factor = list(latency), list(factors)
    log.timings.factor = list(np.repeat(factors, [len(queries) for queries in plan]))
    points = sizes.ticks * SMALL_CHUNK * N_SERIES
    ingest_timing_metrics(run, ingest, SMALL_CHUNK * N_SERIES)
    count_metrics(run, fleet, marks, points)
    query_timing_metrics(run, log)
    # The schedule, not the machine, sets the rates: report them as achieved.
    for target in (run.metrics, run.wall):
        target["ingest_points_per_s"] = points / wall
        target["query_per_s"] = len(log.classes) / wall
    telemetry_metrics(run, before, log)
    late = float((lateness > tick_s / 2).mean())
    run.metrics["loadgen.late_tick_frac"] = late
    run.metrics["loadgen.max_lateness_ms"] = float(lateness.max()) * 1e3
    run.info["overloaded"] = late > 0.01
    run.info["tick_ms"] = TICK_MS
    run.info["ticks_with_speed_reading"] = int((~np.isnan(kernel)).sum())
    verify_queries(run, log)
    verify_fleet(run, fleet)
    if run.tracer is not None:
        run.metrics["loadgen.sustained_points_per_s"] = ladder(run, fleet, rng, pool)


WORKLOADS = {
    "fleet_ingest_durable": fleet_ingest_durable,
    "bulk_ingest_kernel": bulk_ingest_kernel,
    "read_storm": read_storm,
    "mixed_live": mixed_live,
}
