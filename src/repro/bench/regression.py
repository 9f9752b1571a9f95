"""Paper-figure conformance & performance-regression harness.

The cells behind ``python -m repro regress``: each cell of the Figure 5-10
matrix declared in :mod:`repro.bench.baselines` runs through the simulated
clock and reduces to a canonical result record (bandwidths, phase
breakdown, file-system counters, a SHA-256 golden digest of the
canonicalised IOTrace event stream, and the insights diagnosis of that
trace).  The :data:`GATE` row has the shared
gate driver (:mod:`repro.bench.cellrunner`) compare a run against the
committed ``BENCH_figures.json`` baseline on three axes:

1. **determinism** -- golden-trace digests must match the baseline exactly
   (any drift in the event stream, ordering included, is a failure);
2. **bandwidth bands** -- write/read bandwidth per cell must stay within a
   relative tolerance of the baseline (default ``GATE.rtol``);
3. **paper trends** -- the qualitative results of Figures 5-10
   (:data:`~repro.bench.baselines.TRENDS`) must hold in the *current* run,
   so a perf PR can never silently invert a paper result even if it also
   updates the baseline.

Exit-code contract of the CLI wrapper: 0 = gate green, 1 = regression
(band, digest, count, or trend violation), 2 = usage error (missing or
corrupt baseline, unknown cell, malformed perturbation).
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from ..core.trace import trace_filesystem
from ..iostack import registry
from ..mpi.datatypes import FLOAT64, Subarray
from ..mpiio.file import File
from ..mpiio.hints import Hints
from ..topology.presets import PRESETS
from .baselines import MATRIX, TRENDS, Cell
from .cellrunner import Gate, describe_machine_problem
from .runners import run_job, run_overlap_experiment, run_traced_experiment
from .workloads import build_initial_workload, build_workload

__all__ = [
    "GATE",
    "run_cell",
    "parse_perturbations",
]

#: Integer per-cell metrics that must match the baseline exactly (they are
#: request/byte counters of a deterministic run; a drift here is a
#: behaviour change even when the bandwidth band still holds).
#: Scenario cadence counters: only present on cadence-cell records (the
#: comparison treats absent-on-both-sides as a match).
CADENCE_METRICS = (
    "ckpt_dumps",
    "plot_dumps",
    "redshift_dumps",
    "ckpt_bytes",
    "plot_bytes",
)

EXACT_METRICS = (
    "bytes_written",
    "bytes_read",
    "fs_write_requests",
    "fs_read_requests",
    "fs_recoveries",
    "trace_events",
    "file_digest",
    # the diagnosis: which rules fire at which severity, and the HIGH count
    "findings",
    "high",
) + CADENCE_METRICS

#: Banded per-cell metrics (relative tolerance).
BANDED_METRICS = ("write_bw", "read_bw")


def _store_digest(store, paths: tuple[str, ...]) -> str:
    """SHA-256 over the committed bytes of ``paths`` (name, size, data)."""
    import hashlib

    h = hashlib.sha256()
    for path in paths:
        f = store.open(path)
        h.update(path.encode())
        h.update(str(f.size).encode())
        h.update(f.read(0, f.size))
    return h.hexdigest()


# -- the three cell kinds: each is run_job(s) under a trace + a record ---------


def _strided_write_program(comm, collective: bool, hints: Hints):
    """Each rank writes a (1, Block, 1) slab of a 32^3 array (Fig 5)."""
    shape = (32, 32, 32)
    base, rem = divmod(shape[1], comm.size)
    lo = comm.rank * base + min(comm.rank, rem)
    n = base + (1 if comm.rank < rem else 0)
    ftype = Subarray(shape, (shape[0], n, shape[2]), (0, lo, 0), FLOAT64)
    fh = File.open(comm, "fig5", "w", hints=hints)
    fh.set_view(0, FLOAT64, ftype)
    data = np.full((shape[0], n, shape[2]), float(comm.rank))
    t0 = comm.clock
    if collective:
        fh.write_all(data)
    else:
        fh.write(data)
    elapsed = comm.clock - t0
    fh.close()
    return elapsed


def _run_pattern_cell(cell: Cell, machine, hints: Hints | None) -> dict:
    """The fig5 access-pattern cell: one strided write, no strategy."""
    hints = hints if hints is not None else Hints(ds_write=False)
    with trace_filesystem(machine.fs, include_meta=True) as trace:
        job = run_job(
            machine,
            _strided_write_program,
            nprocs=cell.nprocs,
            args=(cell.strategy == "two-phase", hints),
        )
    return _record(
        cell,
        machine=machine,
        hints=hints,
        write_s=max(job.results),
        bytes_written=job.counters.bytes_written,
        fs_write_requests=job.counters.writes,
        fs_recoveries=job.counters.recoveries,
        trace=trace,
    )


def _run_checkpoint_cell(cell: Cell, machine, strategy) -> dict:
    """One dump and (unless the cell is write-only) its read-back."""
    # The "initial" read path measures the new-simulation read of the
    # pre-refined initial grids; "restart" reads the dump itself back
    # (round-robin whole-subgrid reads), so no separate read hierarchy.
    read_hierarchy = (
        build_initial_workload(cell.problem)
        if cell.read_op == "initial" else None
    )
    result, trace = run_traced_experiment(
        machine,
        strategy,
        build_workload(cell.problem),
        nprocs=cell.nprocs,
        read_hierarchy=read_hierarchy,
        read_op=cell.read_op,
        do_read=cell.do_read,
    )
    file_digest = ""
    if registry.get(cell.strategy).format == "scda":
        # scda promises serial equivalence: the committed bytes are pinned
        # so the partition-invariance trends can compare digests across P.
        file_digest = _store_digest(machine.fs.store,
                                    ("ckpt", "ckpt.manifest"))
    return _record(
        cell,
        machine=machine,
        hints=_hints_of(strategy),
        file_digest=file_digest,
        write_s=result.write_time,
        read_s=result.read_time,
        write_phases=result.write_phases,
        read_phases=result.read_phases,
        bytes_written=result.bytes_written,
        bytes_read=result.bytes_read,
        fs_write_requests=result.fs_write_requests,
        fs_read_requests=result.fs_read_requests,
        fs_recoveries=result.fs_recoveries,
        trace=trace,
    )


def _cadence_scenario(cell: Cell):
    """The cell's scenario when it has an output *schedule*, else None.

    A scenario with a plot-file cadence or redshift-triggered dumps cannot
    be measured by the bare checkpoint experiment -- the paper-style cell
    writes one dump, but the scenario's point is its output schedule.
    """
    from ..scenarios import registry as scenario_registry

    try:
        s = scenario_registry.get(cell.problem)
    except (KeyError, ValueError):
        return None
    return s if s.plot_every or s.output_redshifts else None


def _run_driver_cell(cell: Cell, machine, strategy, scenario, hints) -> dict:
    """A full Enzo driver run: compute cycles with dumps in between.

    Two kinds of cell need the driver.  An async strategy (``scenario`` is
    None) has nothing to hide its drain behind in a bare checkpoint, so it
    runs the named problem's cycles (3 for the ``AMR*`` sizes, a dump each)
    with write-behind on: ``write_s`` is the exposed I/O time and
    ``write_bw`` the *effective* bandwidth the application observes.  Its
    record also carries the run's makespan next to that of its synchronous
    twin (:func:`_sync_twin`), so the overlap trends compare the same
    workload both ways.  A cadence ``scenario`` runs its own refinement
    and output schedule -- checkpoints through the cell's strategy, plot
    files through the plot-file writer -- and its record carries
    per-stream dump counts and byte totals so the cadence trends can
    compare the two streams of the same run.
    """
    from ..enzo.simulation import EnzoConfig

    config = EnzoConfig(
        problem=cell.problem if scenario is None else scenario,
        overlap=scenario is None,
    )
    with trace_filesystem(machine.fs, include_meta=True) as trace:
        result = run_overlap_experiment(
            machine, strategy, config, nprocs=cell.nprocs
        )
    if scenario is None:
        extra = _sync_twin(cell, config, result, hints)
    else:
        summaries = result.summaries
        extra = {
            "ckpt_dumps": len(summaries[0]["dumps"]),
            "plot_dumps": len(summaries[0]["plot_dumps"]),
            "redshift_dumps": len(summaries[0]["redshift_dumps"]),
            "ckpt_bytes": sum(int(s["ckpt_bytes"]) for s in summaries),
            "plot_bytes": sum(int(s["plot_bytes"]) for s in summaries),
        }
    return _record(
        cell,
        machine=machine,
        hints=_hints_of(strategy),
        write_s=result.write_time,
        write_phases=result.write_phases,
        bytes_written=result.bytes_written,
        fs_write_requests=result.fs_write_requests,
        fs_recoveries=result.fs_recoveries,
        trace=trace,
        extra=extra,
    )


def _sync_twin(cell: Cell, config, async_result, hints) -> dict:
    """Run an async cell's workload again through its synchronous twin.

    The twin is the composition the async one is a ``variant_of``
    (``mpi-io`` for ``mpi-io-async``) with the same hints, dumping inline
    on a fresh machine outside the cell's trace, so the async run's trace,
    counters and diagnosis stay exactly what they were.  ``bw_speedup`` is
    the ratio of the two runs' effective write bandwidths (bytes per
    exposed I/O second).
    """
    twin = registry.create(registry.get(cell.strategy).variant_of, hints=hints)
    sync = run_overlap_experiment(
        PRESETS[cell.machine](nprocs=cell.nprocs), twin,
        replace(config, overlap=False), nprocs=cell.nprocs,
    )

    def effective_bw(r) -> float:
        return r.bytes_written / r.write_time / 2**20 if r.write_time > 0 else 0.0

    sync_bw = effective_bw(sync)
    return {
        "makespan_s": round(async_result.makespan, 9),
        "sync_makespan_s": round(sync.makespan, 9),
        "bw_speedup": round(
            effective_bw(async_result) / sync_bw if sync_bw > 0 else 0.0, 6
        ),
    }


def _hints_of(strategy) -> Hints | None:
    """The MPI-IO hints a composed strategy runs with (None for HDF4)."""
    return getattr(strategy.format, "hints", None)


def _record(
    cell: Cell, *, trace, machine, hints, write_s, bytes_written,
    fs_write_requests, fs_recoveries, read_s=0.0, bytes_read=0,
    fs_read_requests=0, write_phases=(), read_phases=(), file_digest="",
    extra=None,
) -> dict:
    # insights.autotune imports bench.runners: a module-level import cycles
    from ..insights import Severity
    from ..insights.autotune import _diagnose_run

    diagnosis = _diagnose_run(trace, machine, nprocs=cell.nprocs,
                              hints=hints, strategy=cell.strategy)
    mb = 2**20
    write_s, read_s = float(write_s), float(read_s)
    bytes_written, bytes_read = int(bytes_written), int(bytes_read)
    total_s = write_s + read_s
    record = {
        "figure": cell.figure,
        "machine": cell.machine,
        "problem": cell.problem,
        "strategy": cell.strategy,
        "nprocs": cell.nprocs,
        "write_s": round(write_s, 9),
        "read_s": round(read_s, 9),
        "write_bw": round(bytes_written / write_s / mb, 6)
        if write_s > 0
        else 0.0,
        "read_bw": round(bytes_read / read_s / mb, 6) if read_s > 0 else 0.0,
        "write_phases": {
            k: round(float(v), 9) for k, v in dict(write_phases).items()
        },
        "read_phases": {
            k: round(float(v), 9) for k, v in dict(read_phases).items()
        },
        "bytes_written": bytes_written,
        "bytes_read": bytes_read,
        "fs_write_requests": int(fs_write_requests),
        "fs_read_requests": int(fs_read_requests),
        "fs_recoveries": int(fs_recoveries),
        "trace_events": len(trace),
        "trace_digest": trace.digest(),
        "file_digest": file_digest,
        # Derived ratios the scenario trends compare (deterministic
        # functions of the digest-pinned trace and counters above).
        "meta_ratio": round(trace.metadata_ratio(), 6),
        "read_share": round(read_s / total_s, 6) if total_s > 0 else 0.0,
        "write_requests_per_mb": round(
            int(fs_write_requests) / (bytes_written / mb), 6
        ) if bytes_written else 0.0,
        "findings": sorted({
            f"{i.rule}:{i.severity.name}" for i in diagnosis.insights
            if i.severity is not Severity.OK
        }),
        "high": diagnosis.count(Severity.HIGH),
    }
    record.update(extra or {})
    return record


def run_cell(cell: Cell, *, hints: Hints | None = None) -> dict:
    """Execute one cell and return its canonical result record.

    ``hints`` overrides the strategy's MPI-IO tuning hints -- the hook the
    perturbation acceptance test (and ``--perturb``) uses to prove the gate
    actually trips.
    """
    machine = PRESETS[cell.machine](nprocs=cell.nprocs)
    if cell.figure == "fig5":
        return _run_pattern_cell(cell, machine, hints)
    comp = registry.get(cell.strategy)
    if hints is not None and not comp.takes_hints:
        raise ValueError(
            f"cannot perturb {cell.id}: the {cell.strategy} strategy "
            "takes no MPI-IO hints"
        )
    strategy = registry.create(cell.strategy, hints=hints)
    scenario = _cadence_scenario(cell)
    if comp.options.get("async") or scenario is not None:
        return _run_driver_cell(cell, machine, strategy, scenario, hints)
    return _run_checkpoint_cell(cell, machine, strategy)


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_KINDS = {bool: "1/true/yes/on or 0/false/no/off", float: "a number"}


def parse_perturbations(specs: list[str] | None) -> dict[str, dict]:
    """Parse ``--perturb CELLID:KEY=VALUE`` specs into ``{cell_id: hints}``."""
    out: dict[str, dict] = {}
    for spec in specs or []:
        cell_id, sep, assign = spec.rpartition(":")
        if not sep or "=" not in assign:
            raise ValueError(
                f"bad --perturb spec {spec!r} (want FIG:STRATEGY:NPROCS:KEY=VALUE)"
            )
        key, _, value = assign.partition("=")
        if not hasattr(Hints(), key):
            raise ValueError(f"bad --perturb spec {spec!r}: unknown hint {key!r}")
        current = getattr(Hints(), key)
        try:
            if isinstance(current, bool):
                parsed: object = _BOOLS[value.lower()]
            elif isinstance(current, float):
                parsed = float(value)
            else:
                parsed = int(value)
        except (KeyError, ValueError):
            raise ValueError(
                f"bad --perturb spec {spec!r}: {key} wants "
                f"{_KINDS.get(type(current), 'an integer')}, got {value!r}"
            ) from None
        out.setdefault(cell_id, {})[key] = parsed
    return out


# -- the gate row -------------------------------------------------------------


def _plan(gate: Gate, args) -> tuple[list, dict]:
    """``--cell`` selection plus the ``--perturb`` hint overrides."""
    cells = gate.select(args.cell)
    perturb = parse_perturbations(args.perturb)
    return cells, {cid: {"hints": fields} for cid, fields in perturb.items()}


GATE = Gate(
    family="regress",
    help="paper-figure conformance & perf-regression gate (exit 0/1/2)",
    matrix=MATRIX,
    run=lambda cell, extra: run_cell(
        cell, hints=Hints(**extra["hints"]) if extra.get("hints") else None),
    spec=lambda cell, extra: dict(asdict(cell), hints=extra.get("hints")),
    describe=describe_machine_problem,
    trends=TRENDS,
    cell_grammar="FIG[:STRATEGY[:NPROCS]]",
    cell_keys=("figure", "strategy", "nprocs"),
    cell_example="'fig6:mpi-io:8' or 'fig7'",
    list_columns=(
        ("cell", lambda c: c.id),
        ("machine", lambda c: c.machine),
        ("problem", lambda c: c.problem),
        ("ops", lambda c: "write+read" if c.do_read else "write"),
    ),
    options=(
        ("--perturb", dict(
            action="append", default=None,
            metavar="FIG:STRATEGY:NPROCS:KEY=VALUE",
            help="override one MPI-IO hint for one cell (gate self-test), "
                 "e.g. 'fig6:mpi-io:8:cb_buffer_size=2097152'")),
    ),
    plan=_plan,
    # Committed at the repo root, relative to the CWD the gate runs from
    # (scripts/verify.sh and CI both run from the repo root).
    baseline="BENCH_figures.json",
    # The simulator is deterministic, so the band exists to classify
    # *intentional* changes: within it a refactor is noise, outside it the
    # baseline must be consciously updated (and the trends still hold).
    rtol=0.05,
    exact_metrics=EXACT_METRICS,
    banded_metrics=BANDED_METRICS,
    digest_metric="trace_digest",
)
