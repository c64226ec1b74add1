"""repro — reproduction of *Separation or Not: On Handling Out-of-Order
Time-Series Data in Leveled LSM-Tree* (ICDE 2022).

The package answers the paper's decision problem: given a memory budget
for buffering time-series points, a delay distribution and a generation
interval, should an LSM-tree engine keep one MemTable (``pi_c``) or
separate in-order/out-of-order MemTables (``pi_s``) — and with which
``C_seq`` capacity — to minimise write amplification?

Quickstart
----------
>>> import repro
>>> delay = repro.LogNormalDelay(mu=5, sigma=2)
>>> decision = repro.tune_separation_policy(delay, dt=50, memory_budget=512)
>>> decision.policy            # doctest: +SKIP
'separation'

Layers
------
* :mod:`repro.core` — the WA models (Eqs. 1--5), Algorithm 1, the delay
  analyzer (the paper's contribution);
* :mod:`repro.lsm` — the leveled LSM simulator the experiments run on;
* :mod:`repro.query` — range queries, read amplification, latency model;
* :mod:`repro.workloads` — every evaluated dataset (Table II, dynamic,
  simulated S-9 and H);
* :mod:`repro.distributions` / :mod:`repro.stats` — probabilistic and
  statistical substrate;
* :mod:`repro.obs` — telemetry: metrics registry, structured event bus
  with pluggable sinks, span timers, trace reports;
* :mod:`repro.experiments` — one module per paper figure/table.
"""

from .config import (
    DEFAULT_DISK_MODEL,
    DEFAULT_MEMORY_BUDGET,
    DEFAULT_MODEL_CONFIG,
    DEFAULT_SSTABLE_SIZE,
    DiskModel,
    LsmConfig,
    ModelConfig,
)
from .core import (
    DelayAnalyzer,
    MemoryArbiter,
    RebalanceDecision,
    SeriesAllocation,
    SeriesWorkload,
    allocate_budgets,
    fleet_objective,
    DelayProfile,
    InOrderCurve,
    KsDriftDetector,
    PolicyDecision,
    SeparationWaBreakdown,
    ZetaModel,
    predict_wa_conventional,
    separation_breakdown,
    tune_separation_policy,
    zeta,
)
from .distributions import (
    DelayDistribution,
    EmpiricalDelay,
    ExponentialDelay,
    GammaDelay,
    HalfNormalDelay,
    LogNormalDelay,
    UniformDelay,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointError,
    ConfigError,
    DistributionError,
    EngineClosedError,
    EngineError,
    ExperimentError,
    FaultError,
    InjectedCrash,
    InjectedFault,
    InvariantViolation,
    ModelError,
    QueryError,
    RecoveryError,
    ReproError,
    TelemetryError,
    WalError,
    WorkloadError,
)
from .faults import FAULT_SITES, FaultInjector, FaultPlan
from .obs import (
    JsonlFileSink,
    MetricsRegistry,
    RingBufferSink,
    Telemetry,
    configure_telemetry,
    global_telemetry,
    load_trace,
    render_trace_report,
    reset_global_telemetry,
)
from .lsm import (
    AdaptiveEngine,
    AdmissionController,
    CompactionScheduler,
    FleetReport,
    InvariantChecker,
    RecoveryReport,
    TieredEngine,
    TimeSeriesDatabase,
    compose_engine,
    ConventionalEngine,
    IoTDBStyleEngine,
    LsmEngine,
    MultiLevelEngine,
    SeparationEngine,
    Snapshot,
    WriteAheadLog,
    WriteStats,
    read_wal,
    recover_engine,
)
from .query import (
    AggregateResult,
    QueryStats,
    execute_aggregate_query,
    QueryWorkloadResult,
    execute_range_query,
    query_latency_ms,
    run_query_workload,
)
from .serving import ShardRouter, ShardedDatabase
from .workloads import (
    TABLE_II,
    generate_fleet,
    TimeSeriesDataset,
    generate_dynamic,
    generate_s9,
    generate_synthetic,
    generate_vehicle_h,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "LsmConfig",
    "DiskModel",
    "ModelConfig",
    "DEFAULT_MEMORY_BUDGET",
    "DEFAULT_SSTABLE_SIZE",
    "DEFAULT_DISK_MODEL",
    "DEFAULT_MODEL_CONFIG",
    # core models
    "ZetaModel",
    "zeta",
    "InOrderCurve",
    "predict_wa_conventional",
    "separation_breakdown",
    "SeparationWaBreakdown",
    "tune_separation_policy",
    "PolicyDecision",
    "DelayAnalyzer",
    "DelayProfile",
    "KsDriftDetector",
    "SeriesWorkload",
    "SeriesAllocation",
    "allocate_budgets",
    "fleet_objective",
    "MemoryArbiter",
    "RebalanceDecision",
    # serving tier
    "ShardedDatabase",
    "ShardRouter",
    # engines
    "LsmEngine",
    "ConventionalEngine",
    "SeparationEngine",
    "AdaptiveEngine",
    "IoTDBStyleEngine",
    "MultiLevelEngine",
    "TieredEngine",
    "compose_engine",
    "TimeSeriesDatabase",
    "FleetReport",
    "Snapshot",
    "WriteStats",
    # durability & fault injection
    "WriteAheadLog",
    "read_wal",
    "recover_engine",
    "RecoveryReport",
    "InvariantChecker",
    "FaultPlan",
    "FaultInjector",
    "FAULT_SITES",
    # tail-latency stability
    "CompactionScheduler",
    "AdmissionController",
    # queries
    "QueryStats",
    "execute_range_query",
    "AggregateResult",
    "execute_aggregate_query",
    "query_latency_ms",
    "run_query_workload",
    "QueryWorkloadResult",
    # workloads
    "TimeSeriesDataset",
    "generate_synthetic",
    "generate_dynamic",
    "generate_s9",
    "generate_vehicle_h",
    "generate_fleet",
    "TABLE_II",
    # distributions
    "DelayDistribution",
    "LogNormalDelay",
    "ExponentialDelay",
    "UniformDelay",
    "HalfNormalDelay",
    "GammaDelay",
    "EmpiricalDelay",
    # observability
    "Telemetry",
    "MetricsRegistry",
    "RingBufferSink",
    "JsonlFileSink",
    "configure_telemetry",
    "global_telemetry",
    "reset_global_telemetry",
    "load_trace",
    "render_trace_report",
    # errors
    "ReproError",
    "ConfigError",
    "DistributionError",
    "EngineError",
    "EngineClosedError",
    "ModelError",
    "WorkloadError",
    "QueryError",
    "TelemetryError",
    "ExperimentError",
    "WalError",
    "CheckpointError",
    "CheckpointCorruptError",
    "RecoveryError",
    "InvariantViolation",
    "FaultError",
    "InjectedFault",
    "InjectedCrash",
]
