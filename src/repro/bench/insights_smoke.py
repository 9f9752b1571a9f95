"""The insights smoke matrix (``repro bench insights``).

A small executor-driven cell set that traces one checkpoint dump per
strategy and runs the Drishti-style detector rules over it -- the "does
the diagnosis engine still see what it should" smoke that verify.sh used
to get only from the pytest suite.  Each cell's record is deterministic
(rule ids fired with severities, event count, golden trace digest), so
the cells cache and parallelise exactly like the regress/scale cells.

The gate is structural, not baselined: a cell that raises fails the run,
and :func:`check_smoke` asserts the one qualitative invariant the paper's
whole optimisation story rests on -- the serial HDF4 strategy must
diagnose strictly worse (more HIGH findings) than tuned MPI-IO.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.report import format_table
from ..topology.presets import PRESETS
from .cellrunner import Gate, describe_machine_problem
from .runners import run_traced_experiment
from .workloads import build_workload

__all__ = [
    "GATE",
    "INSIGHTS_MATRIX",
    "InsightsCell",
    "check_smoke",
    "run_insights_cell",
]


@dataclass(frozen=True)
class InsightsCell:
    """One smoke cell: dump with ``strategy``, diagnose the trace."""

    strategy: str
    machine: str = "origin2000"
    problem: str = "AMR16"
    nprocs: int = 4

    @property
    def id(self) -> str:
        return f"insights:{self.strategy}:{self.nprocs}"


INSIGHTS_MATRIX: tuple[InsightsCell, ...] = tuple(
    InsightsCell(strategy)
    for strategy in ("hdf4", "mpi-io", "hdf5", "hdf5-aligned")
)


def run_insights_cell(cell: InsightsCell) -> dict:
    """Trace one dump, diagnose it, reduce to a canonical record."""
    from ..insights import Severity, diagnose
    from ..iostack import registry

    machine = PRESETS[cell.machine](nprocs=cell.nprocs)
    strategy = registry.create(cell.strategy)
    _result, trace = run_traced_experiment(
        machine,
        strategy,
        build_workload(cell.problem),
        nprocs=cell.nprocs,
        do_read=False,
    )
    diagnosis = diagnose(trace, nprocs=cell.nprocs, strategy=cell.strategy)
    findings = sorted(
        {
            (i.rule, i.severity.name)
            for i in diagnosis.insights
            if i.severity is not Severity.OK
        }
    )
    return {
        "strategy": cell.strategy,
        "machine": cell.machine,
        "problem": cell.problem,
        "nprocs": cell.nprocs,
        "findings": [{"rule": rule, "severity": sev} for rule, sev in findings],
        "high": diagnosis.count(Severity.HIGH),
        "warn": diagnosis.count(Severity.WARN),
        "trace_events": len(trace),
        "trace_digest": trace.digest(),
    }


def check_smoke(records: dict[str, dict]) -> list[str]:
    """Structural invariants over a finished smoke run; returns problems."""
    problems = []
    fail = "insights SMOKE FAILED: "
    by_strategy = {r["strategy"]: r for r in records.values()}
    hdf4, mpiio = by_strategy.get("hdf4"), by_strategy.get("mpi-io")
    if hdf4 and mpiio and hdf4["high"] <= mpiio["high"]:
        problems.append(
            f"{fail}the serial hdf4 dump should diagnose worse than mpi-io "
            f"(HIGH findings: hdf4 {hdf4['high']} <= mpi-io {mpiio['high']})"
        )
    for rec in records.values():
        if not rec["findings"]:
            problems.append(
                f"{fail}{rec['strategy']}: no detector rule fired at all "
                "(the diagnosis engine is blind)"
            )
    return problems


def _table(records: dict[str, dict]) -> str:
    return format_table(
        ["strategy", "problem", "P", "high", "warn", "rules fired"],
        [
            [
                r["strategy"],
                r["problem"],
                str(r["nprocs"]),
                str(r["high"]),
                str(r["warn"]),
                ", ".join(f["rule"] for f in r["findings"][:4])
                + (", ..." if len(r["findings"]) > 4 else ""),
            ]
            for r in records.values()
        ],
    )


GATE = Gate(
    family="insights",
    command="bench insights",
    help="run the insights smoke matrix through the executor "
         "(exit 1 if a strategy stops firing its rules)",
    matrix=INSIGHTS_MATRIX,
    run=lambda cell, extra: run_insights_cell(cell),
    describe=describe_machine_problem,
    table=_table,
    check=check_smoke,
)
