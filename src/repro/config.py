"""Configuration objects shared across the library.

The paper's experiments are parameterised by a small set of knobs: the
memory budget ``n`` (number of points that fit in MemTables), the SSTable
size, and — under the separation policy — the split of the budget between
the in-order MemTable ``C_seq`` and the out-of-order MemTable ``C_nonseq``.
This module centralises those knobs plus the simulated I/O cost model used
by the throughput and query-latency experiments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import ConfigError

#: Memory budget (points) used throughout the paper's synthetic experiments.
DEFAULT_MEMORY_BUDGET = 512

#: SSTable size (points) used in the paper ("the size of SSTables is 512
#: points", Section IV).
DEFAULT_SSTABLE_SIZE = 512


def is_integer(value) -> bool:
    """True for an integer setting: any integral number (NumPy's
    included) but a ``bool``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a finite real setting (NumPy's included) that is not a
    ``bool``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_fault_plan(plan) -> None:
    """Raise :class:`ConfigError` unless ``plan`` is a
    :class:`repro.faults.FaultPlan` or ``None``."""
    if plan is not None:
        from .faults.injector import FaultPlan

        if not isinstance(plan, FaultPlan):
            raise ConfigError(
                "fault_plan must be a repro.faults.FaultPlan or None, "
                f"got {type(plan).__name__}"
            )


@dataclass(frozen=True)
class LsmConfig:
    """Static configuration of an LSM storage engine.

    Every landing writes row tables; the columnar cold tier is a layout
    an operator applies afterwards through
    :meth:`~repro.lsm.policies.kernel.StorageKernel.convert_cold`, so it
    has no knob here.  Nor has telemetry: an engine publishes to the bus
    passed as its ``telemetry=`` argument.

    Parameters
    ----------
    memory_budget:
        Maximum number of data points buffered in memory (``n`` in the
        paper).  Under the conventional policy this is the capacity of
        ``C0``; under separation it is split between ``C_seq`` and
        ``C_nonseq``.
    sstable_size:
        Target number of points per SSTable written during compaction.
    seq_capacity:
        Capacity of ``C_seq`` (``n_seq``).  Only meaningful for the
        separation policy.  ``None`` means "half of the budget", the
        original Apache IoTDB default the paper calls ``pi_s(n/2)``.
    wal_path:
        When set, the engine appends every ingested batch to a
        binary-framed, checksummed write-ahead log at this path *before*
        MemTable placement, enabling crash recovery
        (:mod:`repro.lsm.recovery`).  ``None`` (the default) keeps the
        ingest path WAL-free: durability off costs one branch.
    wal_group_records:
        Group-commit record trigger: WAL records are buffered in memory
        and committed (one write + flush, no fsync) once this many are
        pending.  ``1`` (the default) is per-record commit —
        byte-identical to the pre-group-commit WAL.  Values ``> 1``
        trade a bounded durability window (at most ``wal_group_records
        - 1`` acknowledged-but-uncommitted batches) for coalesced
        writes; ``WriteAheadLog.sync()`` is the fsync barrier.  A
        pending group also commits once its frames reach
        :data:`~repro.lsm.wal.GROUP_BYTES`, so huge batches never sit in
        the buffer just because the record trigger is large.
    compaction_scheduler:
        When True the kernel routes every landing operation (flush,
        merge, compaction) through an incremental scheduler
        (:mod:`repro.lsm.scheduler`): full MemTables are detached and
        queued, and their merges execute as bounded work units paced by
        a token bucket refilled per ingested point.  Off by default —
        the stop-the-world landing path is untouched.
    compaction_work_unit:
        Maximum points (victim + batch) merged per scheduler work unit.
        Smaller units mean shorter per-append stalls at slightly more
        staging overhead.
    compaction_tokens_per_point:
        Token-bucket refill rate: work points granted per ingested
        point.  Must exceed the workload's write amplification for the
        scheduler to keep up without backpressure.
    compaction_burst:
        Token-bucket capacity: the largest work burst one append may
        absorb before pacing kicks in.
    backpressure_throttle:
        Landing debt (buffered + queued points) at which the admission
        controller leaves ``healthy`` for ``throttled`` (each append
        then also retires a slice of the backlog).  ``None`` derives
        ``4 * memory_budget``.
    backpressure_shed:
        Landing debt at which the controller enters ``shedding``: the
        writer stalls while the whole backlog drains.  ``None`` derives
        ``16 * memory_budget``.
    fault_plan:
        A :class:`repro.faults.FaultPlan` describing deterministic
        faults to inject at the write path's fault sites.  ``None`` (the
        default) disables injection entirely.
    """

    memory_budget: int = DEFAULT_MEMORY_BUDGET
    sstable_size: int = DEFAULT_SSTABLE_SIZE
    seq_capacity: int | None = None
    wal_path: str | None = None
    wal_group_records: int = 1
    compaction_scheduler: bool = False
    compaction_work_unit: int = 4096
    compaction_tokens_per_point: float = 4.0
    compaction_burst: int = 1 << 16
    backpressure_throttle: int | None = None
    backpressure_shed: int | None = None
    fault_plan: object | None = None

    #: Sizes and counts, checked before any bound: an integer (NumPy's
    #: included), never a ``bool``; ``True`` marks those that may be ``None``.
    _INTEGER_FIELDS = {
        "memory_budget": False,
        "sstable_size": False,
        "seq_capacity": True,
        "wal_group_records": False,
        "compaction_work_unit": False,
        "compaction_burst": False,
        "backpressure_throttle": True,
        "backpressure_shed": True,
    }

    def __post_init__(self) -> None:
        if self.wal_path is not None and (
            not isinstance(self.wal_path, str) or not self.wal_path
        ):
            raise ConfigError(
                f"wal_path must be a non-empty string or None, got {self.wal_path!r}"
            )
        check_fault_plan(self.fault_plan)
        if not isinstance(self.compaction_scheduler, bool):
            raise ConfigError(
                f"compaction_scheduler must be a bool, got {self.compaction_scheduler!r}"
            )
        for name, nullable in self._INTEGER_FIELDS.items():
            value = getattr(self, name)
            if value is None and nullable:
                continue
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.memory_budget < 2:
            raise ConfigError(
                f"memory_budget must be >= 2, got {self.memory_budget}"
            )
        if self.sstable_size < 1:
            raise ConfigError(
                f"sstable_size must be >= 1, got {self.sstable_size}"
            )
        if self.seq_capacity is not None:
            if not 1 <= self.seq_capacity <= self.memory_budget - 1:
                raise ConfigError(
                    "seq_capacity must satisfy 1 <= seq_capacity <= "
                    f"memory_budget - 1; got seq_capacity={self.seq_capacity} "
                    f"with memory_budget={self.memory_budget}"
                )
        if self.wal_group_records < 1:
            raise ConfigError(
                "wal_group_records must be >= 1 (1 = per-record commit), "
                f"got {self.wal_group_records}"
            )
        if self.compaction_work_unit < 1:
            raise ConfigError(
                "compaction_work_unit must be >= 1 point, "
                f"got {self.compaction_work_unit}"
            )
        if not is_finite_number(self.compaction_tokens_per_point):
            raise ConfigError(
                "compaction_tokens_per_point must be a finite number, "
                f"got {self.compaction_tokens_per_point!r}"
            )
        if self.compaction_tokens_per_point <= 0:
            raise ConfigError(
                "compaction_tokens_per_point must be positive (a zero-rate "
                "token bucket would starve every queued merge forever), "
                f"got {self.compaction_tokens_per_point}"
            )
        if self.compaction_burst < 1:
            raise ConfigError(
                f"compaction_burst must be >= 1, got {self.compaction_burst}"
            )
        for name in ("backpressure_throttle", "backpressure_shed"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 point, got {value}")
        if (
            self.backpressure_throttle is not None
            and self.backpressure_shed is not None
            and self.backpressure_throttle > self.backpressure_shed
        ):
            raise ConfigError(
                "backpressure_throttle must not exceed backpressure_shed "
                "(the throttled state must engage before shedding); got "
                f"throttle={self.backpressure_throttle} > "
                f"shed={self.backpressure_shed}"
            )

    @property
    def effective_seq_capacity(self) -> int:
        """``n_seq`` actually used: the explicit value or the IoTDB 1:1 split."""
        if self.seq_capacity is not None:
            return self.seq_capacity
        return self.memory_budget // 2

    @property
    def nonseq_capacity(self) -> int:
        """``n_nonseq = n - n_seq`` for the separation policy."""
        return self.memory_budget - self.effective_seq_capacity

    def with_seq_capacity(self, seq_capacity: int) -> "LsmConfig":
        """Return a copy with a different ``C_seq`` capacity."""
        return replace(self, seq_capacity=seq_capacity)

    #: Knobs :meth:`with_stability` may override.
    _STABILITY_FIELDS = frozenset(
        {
            "wal_group_records",
            "compaction_scheduler",
            "compaction_work_unit",
            "compaction_tokens_per_point",
            "compaction_burst",
            "backpressure_throttle",
            "backpressure_shed",
        }
    )

    def with_stability(self, **overrides) -> "LsmConfig":
        """Return a copy with stability knobs overridden.

        Accepts only the group-commit, scheduler and backpressure
        fields, so a typo fails loudly instead of silently building an
        unrelated config.
        """
        unknown = set(overrides) - self._STABILITY_FIELDS
        if unknown:
            raise ConfigError(
                f"unknown stability knob(s): {sorted(unknown)}; "
                f"expected a subset of {sorted(self._STABILITY_FIELDS)}"
            )
        return replace(self, **overrides)


@dataclass(frozen=True)
class DiskModel:
    """Simulated storage cost model.

    The paper's latency/throughput experiments ran on an HDD, where the
    dominant effects are per-file seeks and sequential per-point transfer.
    We reproduce those effects with a linear cost model; absolute values
    are calibrated so the synthetic workloads land in the same order of
    magnitude as the paper's reported numbers, but only *relative*
    comparisons between policies are meaningful.

    All times are in milliseconds.
    """

    #: Cost of opening + seeking to one SSTable file.
    seek_ms: float = 8.0
    #: Cost of reading one data point sequentially.
    read_point_ms: float = 0.0004
    #: Cost of writing one data point sequentially.
    write_point_ms: float = 0.0004
    #: Fixed per-query overhead (parsing, planning, memtable scan setup).
    query_overhead_ms: float = 0.05
    #: Cost of inserting one point into a MemTable (CPU-bound).
    insert_point_ms: float = 0.011

    def __post_init__(self) -> None:
        for name in (
            "seek_ms",
            "read_point_ms",
            "write_point_ms",
            "query_overhead_ms",
            "insert_point_ms",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    def read_cost_ms(self, files: int, points: int) -> float:
        """Latency of reading ``points`` points spread over ``files`` files."""
        return files * self.seek_ms + points * self.read_point_ms

    def write_cost_ms(self, points: int) -> float:
        """Latency of sequentially writing ``points`` points."""
        return points * self.write_point_ms


@dataclass(frozen=True)
class ModelConfig:
    """Numerical parameters of the analytical WA models.

    These control the accuracy/runtime trade-off of evaluating Eq. 2's
    infinite sum and improper integral.  The defaults are tight enough
    that model error is dominated by the paper's own approximations
    (point- vs SSTable-granularity), not by numerics.
    """

    #: Quadrature nodes for the expectation over the delay ``x`` (equal
    #: probability mass per node, taken at quantile midpoints).
    quadrature_nodes: int = 96
    #: Probability mass implicitly ignored beyond the extreme quantile nodes.
    tail_mass: float = 1e-6
    #: The sum over ``i`` is truncated once the per-term upper bound
    #: ``n * (1 - F(i*dt))`` drops below this tolerance.
    term_tolerance: float = 1e-4
    #: Terms ``i <= dense_terms`` are summed exactly; beyond that a
    #: geometric grid + trapezoid integration approximates the tail.
    dense_terms: int = 1024
    #: Number of geometric grid points for the tail of the sum over ``i``.
    tail_grid_points: int = 512
    #: Resolution of the integrated-log-CDF table used by the tail.
    h_grid_points: int = 8192
    #: ``log F`` values are clipped below at this floor (the factor is
    #: effectively zero there; clipping avoids ``-inf - -inf`` artefacts).
    log_cdf_floor: float = -80.0

    def __post_init__(self) -> None:
        if self.quadrature_nodes < 8:
            raise ConfigError("quadrature_nodes must be >= 8")
        if not 0 < self.tail_mass < 0.5:
            raise ConfigError("tail_mass must be in (0, 0.5)")
        if self.term_tolerance <= 0:
            raise ConfigError("term_tolerance must be positive")
        if self.dense_terms < 1:
            raise ConfigError("dense_terms must be >= 1")
        if self.tail_grid_points < 8:
            raise ConfigError("tail_grid_points must be >= 8")
        if self.h_grid_points < 64:
            raise ConfigError("h_grid_points must be >= 64")
        if self.log_cdf_floor >= 0:
            raise ConfigError("log_cdf_floor must be negative")


DEFAULT_DISK_MODEL = DiskModel()
DEFAULT_MODEL_CONFIG = ModelConfig()
