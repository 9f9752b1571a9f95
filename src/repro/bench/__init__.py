"""Benchmark harness: workload builders, experiment runners, the gate
table (``GATES``: regress / scale rows served by the one driver in
``repro.bench.cellrunner``), and the parallel cell executor
with its content-addressed cache (``repro.bench.executor`` /
``repro.bench.cellcache``)."""

from .baselines import MATRIX, TRENDS, Cell, Trend
from .cellcache import CellCache
from .cellrunner import (
    Gate,
    GateReport,
    gates,
    get_family,
    run_gate,
)
from .executor import default_jobs, resolve_jobs, run_cells
from .figures import render_bars, render_figure
from .regression import parse_perturbations, run_cell
from .runners import (
    ExperimentResult,
    run_checkpoint_experiment,
    run_traced_experiment,
)
from .scale import (
    SCALE_MATRIX,
    SCALE_TRENDS,
    ScaleCell,
    run_scale_cell,
    select_scale_cells,
)
from .timings import Telemetry, format_timings, load_timings, save_timings
from .utilization import device_utilization
from .workloads import (
    build_initial_workload,
    build_scale_workload,
    build_workload,
    workload_summary,
)

#: The gate table, keyed by family name (= the CLI leaf command).
GATES: dict[str, Gate] = gates()

__all__ = [
    "ExperimentResult",
    "run_checkpoint_experiment",
    "run_traced_experiment",
    "build_workload",
    "build_initial_workload",
    "workload_summary",
    "render_bars",
    "render_figure",
    "device_utilization",
    # the gate table and its one driver
    "GATES",
    "Gate",
    "GateReport",
    "run_gate",
    # paper-figure matrix
    "Cell",
    "Trend",
    "MATRIX",
    "TRENDS",
    "run_cell",
    "parse_perturbations",
    # weak-scaling matrix
    "ScaleCell",
    "SCALE_MATRIX",
    "SCALE_TRENDS",
    "build_scale_workload",
    "run_scale_cell",
    "select_scale_cells",
    # parallel executor, cache, telemetry
    "CellCache",
    "Telemetry",
    "default_jobs",
    "format_timings",
    "get_family",
    "load_timings",
    "resolve_jobs",
    "run_cells",
    "save_timings",
]
