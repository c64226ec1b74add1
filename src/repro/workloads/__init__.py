"""Workload generation: every dataset the paper evaluates on.

* :mod:`repro.workloads.synthetic` — arithmetic generation times plus
  i.i.d. delays (Section V-A's recipe);
* :mod:`repro.workloads.catalog` — Table II's M1--M12 grid;
* :mod:`repro.workloads.dynamic` — delay laws drifting over time
  (Figures 10 and 17);
* :mod:`repro.workloads.s9` — simulated stand-in for the real S-9
  mobile-transmission dataset (Figures 8, 11, 18);
* :mod:`repro.workloads.vehicle` — simulated stand-in for the real
  vehicle-industry dataset H (Section VI, Figures 16, 19, 20);
* :mod:`repro.workloads.io` — CSV persistence.
"""

from .catalog import PAPER_POINTS, TABLE_II, SyntheticSpec
from .dataset import TimeSeriesDataset
from .dynamic import DelaySegment, figure10_segments, generate_dynamic
from .fleet import generate_fleet
from .io import load_csv, save_csv
from .s9 import S9_MEMORY_BUDGET, S9_POINTS, generate_s9
from .synthetic import arrival_order, generate_synthetic
from .vehicle import H_DT_MS, H_POINTS, H_RESEND_PERIOD_MS, generate_vehicle_h

__all__ = [
    "TimeSeriesDataset",
    "generate_synthetic",
    "arrival_order",
    "SyntheticSpec",
    "TABLE_II",
    "PAPER_POINTS",
    "DelaySegment",
    "generate_dynamic",
    "generate_fleet",
    "figure10_segments",
    "generate_s9",
    "S9_POINTS",
    "S9_MEMORY_BUDGET",
    "generate_vehicle_h",
    "H_POINTS",
    "H_DT_MS",
    "H_RESEND_PERIOD_MS",
    "save_csv",
    "load_csv",
]
