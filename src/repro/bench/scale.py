"""Weak-scaling sweeps past the paper's processor counts (``repro scale``).

The paper measures P <= 64; this module pushes the same strategy stack to
P in {16, 64, 128, 512, 1024} on synthetic weak-scaling workloads (per-rank
data constant, see :func:`~repro.bench.workloads.build_scale_workload`) and
pins the *scaling trends* -- shared-file collective I/O degrades gracefully
while file-per-grid metadata cost explodes with P -- as a committed
``BENCH_scale.json`` gate.

Feasibility rests on the scale-mode fast paths, none of which are enabled
on the pinned-digest figure cells:

* ``batch_collectives=True`` -- collectives run through the rendezvous
  engine (:mod:`repro.mpi.batch`): O(P) schedule crossings per collective
  instead of O(P log P .. P^2) simulated messages;
* ``strategy.batch_requests = True`` -- a grid file's array writes are
  posted as one batched request (one schedule-point crossing);
* hoisted state construction -- ``HierarchyMeta``, the block partition and
  the owner map are computed once and shared by all ranks instead of being
  rebuilt P times by ``RankState.from_hierarchy``.

Scale cells pin exact request/byte counters and banded bandwidths, but no
golden trace digests: a P=1024 event stream is large, and determinism is
already enforced by the 52 figure cells.  Host wall-clock cost per cell
is recorded by the executor's telemetry (``BENCH_timings.json``), never
in the records themselves -- it measures the host, not the model, and
keeping it out of the records is what makes them byte-identical across
serial, parallel and cache-replay execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..amr.partition import BlockPartition
from ..enzo.meta import HierarchyMeta
from ..enzo.state import RankState, make_owner_map
from ..topology.presets import PRESETS
from .baselines import Trend
from .cellrunner import Gate
from .runners import run_job
from .workloads import build_scale_workload

__all__ = [
    "GATE",
    "SCALE_MATRIX",
    "SCALE_TRENDS",
    "ScaleCell",
    "build_scale_states",
    "run_scale_cell",
    "scale_chart",
    "select_scale_cells",
]

SCALE_PROCS = (16, 64, 128, 512, 1024)
SCALE_STRATEGIES = ("mpi-io", "hdf4")
SCALE_MACHINES = ("origin2000", "chiba_city")

#: Exact-match per-cell metrics (deterministic counters of the run).
EXACT_METRICS = (
    "bytes_written",
    "fs_write_requests",
    "fs_files_created",
    "fs_recoveries",
    "cells",
)

#: Banded per-cell metrics (relative tolerance).
BANDED_METRICS = ("write_bw", "write_s")


@dataclass(frozen=True)
class ScaleCell:
    """One point of the weak-scaling sweep."""

    machine: str
    strategy: str
    nprocs: int

    @property
    def id(self) -> str:
        return f"{self.machine}:{self.strategy}:P{self.nprocs}"


SCALE_MATRIX: tuple[ScaleCell, ...] = tuple(
    ScaleCell(machine, strategy, nprocs)
    for machine in SCALE_MACHINES
    for strategy in SCALE_STRATEGIES
    for nprocs in SCALE_PROCS
)


def _cid(machine: str, strategy: str, nprocs: int) -> str:
    return ScaleCell(machine, strategy, nprocs).id


def _scaling_trends() -> tuple[Trend, ...]:
    """The pinned weak-scaling results, per machine.

    ``P_hi``/``P_lo`` are the sweep's extremes; ratio trends compare how
    each strategy's cost *grows* with P, which pins the paper's
    architectural claim without pinning absolute bandwidths.
    """
    lo, hi = SCALE_PROCS[0], SCALE_PROCS[-1]
    trends: list[Trend] = []
    for m in SCALE_MACHINES:
        trends.append(Trend(
            id=f"scale-fpg-files-explode-{m}",
            description=(
                f"{m}: the file-per-grid namespace grows ~linearly with P "
                f"while the shared-file strategy creates O(1) files "
                f"(P={lo}->P={hi})"
            ),
            metric="fs_files_created",
            left=_cid(m, "hdf4", hi), left_div=_cid(m, "hdf4", lo),
            relation="gt",
            right=_cid(m, "mpi-io", hi), right_div=_cid(m, "mpi-io", lo),
        ))
        trends.append(Trend(
            id=f"scale-fpg-time-explodes-{m}",
            description=(
                f"{m}: file-per-grid dump time grows faster with P than "
                f"the shared-file collective dump time (P={lo}->P={hi})"
            ),
            metric="write_s",
            left=_cid(m, "hdf4", hi), left_div=_cid(m, "hdf4", lo),
            relation="gt",
            right=_cid(m, "mpi-io", hi), right_div=_cid(m, "mpi-io", lo),
        ))
        trends.append(Trend(
            id=f"scale-collective-wins-at-{hi}-{m}",
            description=(
                f"{m}: at P={hi} the shared-file collective strategy "
                f"sustains higher aggregate write bandwidth than "
                f"file-per-grid"
            ),
            metric="write_bw",
            left=_cid(m, "mpi-io", hi),
            relation="gt",
            right=_cid(m, "hdf4", hi),
        ))
        trends.append(Trend(
            id=f"scale-collective-graceful-{m}",
            description=(
                f"{m}: shared-file collective bandwidth does not collapse "
                f"under weak scaling (P={hi} sustains at least half the "
                f"P={lo} aggregate bandwidth; file-per-grid falls below)"
            ),
            metric="write_bw",
            left=_cid(m, "mpi-io", hi), left_div=_cid(m, "mpi-io", lo),
            relation="gt",
            right=_cid(m, "hdf4", hi), right_div=_cid(m, "hdf4", lo),
        ))
    return tuple(trends)


SCALE_TRENDS: tuple[Trend, ...] = _scaling_trends()


# -- running ------------------------------------------------------------------


def build_scale_states(hierarchy, nprocs: int) -> list[RankState]:
    """Every rank's :class:`RankState`, with the shared parts hoisted.

    ``RankState.from_hierarchy`` rebuilds the hierarchy metadata and owner
    map per rank -- O(P * grids) work that dwarfs the simulated I/O at
    P=1024.  Here meta, partition and owner map are computed once and
    shared (they are read-only during a dump), leaving only the per-rank
    top-grid piece extraction.
    """
    meta = HierarchyMeta.from_hierarchy(hierarchy)
    partition = BlockPartition(hierarchy.root.dims, nprocs)
    owner = make_owner_map(meta, nprocs, policy="round_robin")
    rank_subgrids: list[dict] = [{} for _ in range(nprocs)]
    for gid in sorted(owner):
        rank_subgrids[owner[gid]][gid] = hierarchy[gid]
    root = hierarchy.root
    return [
        RankState(
            rank=rank,
            nprocs=nprocs,
            meta=meta,
            partition=partition,
            top_piece=partition.extract(root, rank),
            subgrids=rank_subgrids[rank],
            owner=owner,
        )
        for rank in range(nprocs)
    ]


def _write_program(comm, states, strategy, base):
    return strategy.write_checkpoint(comm, states[comm.rank], base)


def run_scale_cell(cell: ScaleCell) -> dict:
    """Execute one weak-scaling cell (write-only) and return its record."""
    from ..iostack import registry

    hierarchy = build_scale_workload(cell.nprocs)
    states = build_scale_states(hierarchy, cell.nprocs)
    machine = PRESETS[cell.machine](nprocs=cell.nprocs)
    strategy = registry.create(cell.strategy)
    strategy.batch_requests = True  # scale mode: batched per-grid requests
    job = run_job(
        machine,
        _write_program,
        nprocs=cell.nprocs,
        args=(states, strategy, "scale"),
        batch_collectives=True,
    )
    write_s = max(s.elapsed for s in job.results)
    counters = job.counters
    return {
        "machine": cell.machine,
        "strategy": cell.strategy,
        "nprocs": cell.nprocs,
        "cells": hierarchy.total_cells(),
        "write_s": round(float(write_s), 9),
        "write_bw": round(counters.bytes_written / write_s / 2**20, 6),
        "bytes_written": int(counters.bytes_written),
        "fs_write_requests": int(counters.writes),
        "fs_files_created": len(machine.fs.store.listdir()),
        "fs_recoveries": int(counters.recoveries),
    }


def scale_chart(records: dict) -> str:
    """Aggregate write bandwidth vs processor count, per machine."""
    from .figures import render_figure

    out = []
    for machine in SCALE_MACHINES:
        series: dict[str, dict] = {}
        for rec in records.values():
            if rec["machine"] != machine:
                continue
            series.setdefault(rec["strategy"], {})[
                f"P={rec['nprocs']}"
            ] = rec["write_bw"]
        if not series:
            continue
        out.append(render_figure(
            f"weak scaling -- {machine} -- aggregate write bandwidth",
            {k: dict(sorted(v.items(), key=lambda i: int(i[0][2:])))
             for k, v in series.items()},
            unit="MB/s",
        ))
    return "\n\n".join(out)


# -- the gate row -------------------------------------------------------------

GATE = Gate(
    family="scale",
    help="weak-scaling sweep P=16..1024 vs BENCH_scale.json (exit 0/1/2)",
    matrix=SCALE_MATRIX,
    run=lambda cell, extra: run_scale_cell(cell),
    trends=SCALE_TRENDS,
    cell_grammar="MACHINE[:STRATEGY[:P]]",
    cell_keys=("machine", "strategy", "nprocs"),
    cell_example="'origin2000:mpi-io:128' or 'chiba_city'",
    list_columns=(
        ("cell", lambda c: c.id),
        ("machine", lambda c: c.machine),
        ("strategy", lambda c: c.strategy),
        ("P", lambda c: str(c.nprocs)),
    ),
    baseline="BENCH_scale.json",
    # Runs are deterministic, so the band only absorbs float formatting
    # and cross-version arithmetic differences, not real variance.
    rtol=0.05,
    exact_metrics=EXACT_METRICS,
    banded_metrics=BANDED_METRICS,
    trend_noun="scaling",
    trend_source="scaling law",
    chart=scale_chart,
)


def select_scale_cells(specs: list[str] | None) -> list[ScaleCell]:
    """``GATE.select`` under the name the closed ``perfbench/`` imports."""
    return GATE.select(specs)
