"""The four perfbench workloads: cell lists, cell runners, correctness checks.

Each workload is a short list of cells chosen so that one group of layers
does most of the host work and the others do almost none (see README.md).
Cells are the repo's own bench specs -- committed ``BENCH_figures.json`` /
``BENCH_scale.json`` cells wherever one is small enough -- and are driven
through public API only (``run_traced_experiment``, ``run_scale_cell``,
``EnzoSimulation`` + ``run_spmd``, ``build_workload``).

Seeds.  ``--seed 0`` runs every cell on its registered hierarchy, so the
records compare exactly against the committed baselines.  Any other seed
keeps the registered grid *structure* and redraws the payload that does
not steer refinement -- the three baryon velocity fields and every
particle's position, velocity and second attribute -- from
``numpy.random.default_rng(seed)``.  Re-seeding the structure itself
(``dataclasses.replace(scenario, seed=S)``) was measured and rejected: it
moves one cell's host time by 20-27 % and its simulated time by 14-57 %
between seeds (IQR over median, seeds 1-10), which no bound <= 0.25 could
tell from a regression.  Redrawn particles still change per-rank particle
counts, message sizes and every checksum, so the simulated sums differ from
seed to seed by a fraction of a percent.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.bench import (
    build_initial_workload,
    build_workload,
    run_scale_cell,
    run_traced_experiment,
)
from repro.bench.baselines import TRENDS, Cell, cell_by_id
from repro.bench.cellrunner import evaluate_trend
from repro.bench.overlap import OverlapPair
from repro.bench.runners import run_checkpoint_experiment
from repro.bench.scale import SCALE_TRENDS, ScaleCell, select_scale_cells
from repro.bench.workloads import build_scale_workload
from repro.enzo.simulation import EnzoConfig, EnzoSimulation
from repro.enzo.validation import compare_checkpoints
from repro.iostack import registry
from repro.mpi.runner import run_spmd
from repro.topology.presets import PRESETS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Payload fields redrawn for a non-zero seed: none of them feeds back
#: into refinement (density and dark-matter density do, in the driver).
RESEEDED_FIELDS = ("velocity_x", "velocity_y", "velocity_z")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple  # Cell | ScaleCell | OverlapPair, run in this order
    #: id of the cell whose dump the correctness pass reads back.
    verify: str
    #: untimed passes before the first timed one
    warmups: int = 1


def _regress(*ids: str) -> tuple:
    return tuple(cell_by_id(i) for i in ids)


def _scale(*ids: str) -> tuple:
    return tuple(select_scale_cells(list(ids)))


def _pair(machine: str) -> OverlapPair:
    # The committed overlap pairs run AMR32 (4-5 s each); AMR16 keeps the
    # same driver, cadence and process count inside the run-time budget.
    return OverlapPair(machine, "mpi-io", "mpi-io-async", "AMR16",
                       nprocs=8, ncycles=3)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "collective-ranks",
            _regress("fig10:hdf5:8", "fig10:mpi-io:16",
                     "flashx-particles:mpi-io:8")
            + _scale("origin2000:mpi-io:P64"),
            verify="flashx-particles:mpi-io:8",
        ),
        Workload(
            "funnel-hdf4",
            _regress("fig9:hdf4:2", "fig6:hdf4:2", "lustre:hdf4:4",
                     "foggie-nested:hdf4:4")
            + _scale("origin2000:hdf4:P64"),
            verify="fig6:hdf4:2",
            # 1 GB of AMR64 dumps: the heap needs a second pass to settle
            warmups=2,
        ),
        Workload(
            "driver-async",
            (_pair("origin2000"), _pair("chiba_city")),
            verify=_pair("origin2000").id,
        ),
        Workload(
            "scda-p2",
            _regress("scda:mpi-io-scda:2", "scda:mpi-io-scda:1"),
            verify="scda:mpi-io-scda:2",
        ),
    )
}


# -- inputs -------------------------------------------------------------------


def reseed(hierarchy, rng) -> None:
    """Redraw the structure-neutral payload of ``hierarchy`` in place."""
    for grid in hierarchy.grids():
        for name in RESEEDED_FIELDS:
            grid.fields[name] = 0.05 * rng.standard_normal(grid.dims)
        p = grid.particles
        n = len(p)
        if n == 0:
            continue
        # Bootstrap the existing positions (keeps the clustering the
        # particle I/O analysis is about) and jitter by up to half a cell.
        pick = rng.integers(0, n, n)
        jitter = (rng.random((n, 3)) - 0.5) * grid.cell_width
        upper = np.nextafter(grid.right_edge, grid.left_edge)
        p.positions[:] = np.clip(p.positions[pick] + jitter,
                                 grid.left_edge, upper)
        p.velocities[:] = 0.01 * rng.standard_normal((n, 3))
        p.attributes[:, 1] = rng.random(n)


class Inputs:
    """The hierarchies of one run: registered masters, reseeded once.

    Mirrors ``build_workload``: masters are cached and every cell gets a
    deep copy, so a cell's cost includes the copy but never the build.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.build_s = 0.0  # host seconds inside repro's own builders
        self._masters: dict = {}

    def hierarchy(self, key: tuple, build):
        master = self._masters.get(key)
        if master is None:
            t0 = time.perf_counter()
            master = build()
            self.build_s += time.perf_counter() - t0
            if self.seed:
                salt = zlib.crc32(repr(key).encode())
                reseed(master, np.random.default_rng([self.seed, salt]))
            self._masters[key] = master
        return master.copy()


def _driver_config(pair: OverlapPair, overlap: bool) -> EnzoConfig:
    return EnzoConfig(problem=pair.problem, ncycles=pair.ncycles,
                      dump_every=1, overlap=overlap)


def _dump_hierarchy(inputs: Inputs, problem: str):
    return inputs.hierarchy((problem, "dump"),
                            lambda: build_workload(problem))


def _initial_hierarchy(inputs: Inputs, problem: str):
    return inputs.hierarchy((problem, "initial"),
                            lambda: build_initial_workload(problem))


def _driver_hierarchy(inputs: Inputs, pair: OverlapPair):
    config = _driver_config(pair, False)
    return inputs.hierarchy(
        (pair.problem, "driver"),
        lambda: EnzoSimulation.build_initial_hierarchy(config),
    )


def prepare(workload: Workload, inputs: Inputs) -> None:
    """Cold-build every hierarchy the workload's cells will copy."""
    for spec in workload.cells:
        if isinstance(spec, Cell):
            _dump_hierarchy(inputs, spec.problem)
            if spec.do_read and spec.read_op == "initial":
                _initial_hierarchy(inputs, spec.problem)
        elif isinstance(spec, ScaleCell):
            build_scale_workload(spec.nprocs)
        else:
            _driver_hierarchy(inputs, spec)


# -- cell runners -------------------------------------------------------------

MB = 2**20


def _store_digest(store, paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        f = store.open(path)
        h.update(path.encode())
        h.update(str(f.size).encode())
        h.update(f.read(0, f.size))
    return h.hexdigest()


def run_figure_cell(cell: Cell, inputs: Inputs, verify: bool = False) -> dict:
    """One checkpoint cell: what ``bench.regression.run_cell`` does for a
    figure cell, on the run's (possibly reseeded) hierarchies."""
    machine = PRESETS[cell.machine](nprocs=cell.nprocs)
    strategy = registry.create(cell.strategy)
    read_hierarchy = None
    if cell.do_read and cell.read_op == "initial":
        read_hierarchy = _initial_hierarchy(inputs, cell.problem)
    result, trace = run_traced_experiment(
        machine, strategy, _dump_hierarchy(inputs, cell.problem),
        nprocs=cell.nprocs, read_hierarchy=read_hierarchy,
        read_op=cell.read_op, do_read=cell.do_read,
    )
    file_digest = ""
    if registry.get(cell.strategy).format == "scda":
        file_digest = _store_digest(machine.fs.store, ("ckpt", "ckpt.manifest"))
    write_s, read_s = result.write_time, result.read_time
    record = {
        "write_s": round(write_s, 9),
        "read_s": round(read_s, 9),
        "makespan_s": round(write_s + read_s, 9),
        "write_bw": round(result.bytes_written / write_s / MB, 6),
        "read_bw": round(result.bytes_read / read_s / MB, 6) if read_s else 0.0,
        "bytes_written": result.bytes_written,
        "bytes_read": result.bytes_read,
        "fs_write_requests": result.fs_write_requests,
        "fs_read_requests": result.fs_read_requests,
        "fs_recoveries": result.fs_recoveries,
        "trace_events": len(trace),
        "trace_digest": trace.digest(),
        "file_digest": file_digest,
    }
    if verify:
        other = registry.create("mpi-io" if cell.strategy == "hdf4" else "hdf4")
        twin = PRESETS[cell.machine](nprocs=cell.nprocs)
        run_checkpoint_experiment(
            twin, other, _dump_hierarchy(inputs, cell.problem),
            nprocs=cell.nprocs, do_read=False,
        )
        record["verify"] = compare_checkpoints(
            machine.fs, strategy, "ckpt", twin.fs, other, "ckpt"
        ).summary()
    return record


def run_driver_pair(pair: OverlapPair, inputs: Inputs,
                    verify: bool = False) -> dict:
    """Sync twin, async side, then a restart read of the async side's last
    dump: ``bench.overlap.run_overlap_pair`` on the run's hierarchy, plus
    the read every production restart performs."""
    sides = {}
    for name, overlap in ((pair.sync, False), (pair.async_, True)):
        machine = PRESETS[pair.machine](nprocs=pair.nprocs)
        strategy = registry.create(name)
        sim = EnzoSimulation(
            config=_driver_config(pair, overlap), strategy=strategy,
            hierarchy=_driver_hierarchy(inputs, pair),
        )
        machine.reset_timing()
        machine.fs.counters.reset()
        res = run_spmd(machine, lambda comm, sim=sim: sim.run(comm, "dump"),
                       nprocs=pair.nprocs)
        sides[name] = (machine, strategy, res)
    machine, strategy, res = sides[pair.async_]
    last_dump = res.results[0]["dumps"][-1]
    counters = machine.fs.counters
    bytes_written, write_requests = counters.bytes_written, counters.writes
    machine.reset_timing()
    counters.reset()
    restart = run_spmd(
        machine, lambda comm: strategy.read_checkpoint(comm, last_dump)[1],
        nprocs=pair.nprocs,
    )
    read_s = max(s.elapsed for s in restart.results)
    sync_makespan = sides[pair.sync][2].elapsed
    record = {
        "write_s": round(max(s["write_time"] for s in res.results), 9),
        "read_s": round(read_s, 9),
        "makespan_s": round(res.elapsed + read_s, 9),
        "sync_makespan_s": round(sync_makespan, 9),
        "speedup": round(sync_makespan / res.elapsed, 6),
        "bytes_written": bytes_written,
        "bytes_read": counters.bytes_read,
        "fs_write_requests": write_requests,
        "fs_read_requests": counters.reads,
    }
    if verify:
        smachine, sstrategy, _ = sides[pair.sync]
        record["verify"] = compare_checkpoints(
            smachine.fs, sstrategy, last_dump, machine.fs, strategy, last_dump
        ).summary()
    return record


def run_scale(cell: ScaleCell) -> dict:
    record = run_scale_cell(cell)
    record["read_s"] = 0.0
    record["makespan_s"] = record["write_s"]
    return record


def run_one(spec, inputs: Inputs, verify: bool = False) -> dict:
    if isinstance(spec, Cell):
        return run_figure_cell(spec, inputs, verify)
    if isinstance(spec, ScaleCell):
        return run_scale(spec)
    return run_driver_pair(spec, inputs, verify)


def run_pass(workload: Workload, inputs: Inputs, *, verdicts: dict | None = None,
             around=None) -> tuple[dict, float]:
    """Run every cell once; returns ``({cell id: record}, wall seconds)``.

    The wall is the sum of the cells' own walls: cyclic garbage left by a
    finished engine is collected between cells, outside the timed region.
    With ``verdicts`` given this is the correctness pass: the verify cell
    also reads its dump back and the verdict lands in ``verdicts[cell id]``.
    ``around(spec)`` returns a context manager entered around each cell
    (the tracer's root span).
    """
    records: dict = {}
    wall = 0.0
    for spec in workload.cells:
        verify = verdicts is not None and spec.id == workload.verify
        gc.collect()
        with around(spec) if around else nullcontext():
            t0 = time.perf_counter()
            record = run_one(spec, inputs, verify)
            wall += time.perf_counter() - t0
        if verify:
            verdicts[spec.id] = record.pop("verify")
        records[spec.id] = record
    return records, wall


def sim_sums(records: dict) -> dict:
    """The three simulated end-to-end sums over a pass's records."""
    return {
        f"sim_{key}": sum(r[key] for r in records.values())
        for key in ("write_s", "read_s", "makespan_s")
    }


# -- correctness --------------------------------------------------------------

_FIGURE_EXACT = (
    "write_s", "read_s", "bytes_written", "bytes_read", "fs_write_requests",
    "fs_read_requests", "fs_recoveries", "trace_events", "trace_digest",
    "file_digest",
)
_SCALE_EXACT = (
    "write_s", "bytes_written", "fs_write_requests", "fs_files_created",
    "fs_recoveries", "cells",
)


def _baseline(name: str) -> dict:
    with open(os.path.join(ROOT, name)) as f:
        return json.load(f)["cells"]


def check_records(workload: Workload, records: dict, seed: int,
                  verdicts: dict | None = None) -> list[dict]:
    """Every correctness check the records alone can answer.

    Returns one ``{"check", "ok", "detail"}`` per check: committed-baseline
    equality (regress cells at seed 0; scale cells, which take no seed,
    always), every paper/scale trend whose cells are all in the workload
    (this includes the scda P=1 vs P=2 ``file_digest`` equality), the
    overlap gate's speedup > 1, and the read-back ``verdicts`` of the
    correctness pass.
    """
    checks = []

    def note(check: str, ok: bool, detail: str = "") -> None:
        checks.append({"check": check, "ok": bool(ok), "detail": detail})

    figures = scale = None
    for spec in workload.cells:
        rec = records.get(spec.id)
        if rec is None:  # a partial pass (selftest runs one cell)
            continue
        if isinstance(spec, Cell) and seed == 0:
            figures = figures or _baseline("BENCH_figures.json")
            base, keys = figures.get(spec.id), _FIGURE_EXACT
        elif isinstance(spec, ScaleCell):
            scale = scale or _baseline("BENCH_scale.json")
            base, keys = scale.get(spec.id), _SCALE_EXACT
        else:
            base = None
        if base is not None:
            diff = [k for k in keys if rec[k] != base[k]]
            note(f"baseline:{spec.id}", not diff,
                 "differs from committed baseline: " + ", ".join(diff)
                 if diff else "")
        if isinstance(spec, OverlapPair):
            note(f"overlap-speedup:{spec.id}", rec["speedup"] > 1.0,
                 f"async makespan speedup {rec['speedup']}")
    for cell_id, verdict in (verdicts or {}).items():
        note(f"readback:{cell_id}", verdict.startswith("OK"), verdict)
    for trend in TRENDS + SCALE_TRENDS:
        if all(c in records for c in trend.cells):
            out = evaluate_trend(trend, records)
            note(f"trend:{trend.id}", out["ok"],
                 f"{out['lhs']} {trend.relation} {out['rhs']}")
    return checks
