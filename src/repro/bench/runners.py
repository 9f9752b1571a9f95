"""Experiment runners: one strategy on one machine, write + restart read.

:func:`run_job` is the one way a measured SPMD job is launched (reset the
machine's timelines and counters, run, snapshot the counters).
:func:`run_checkpoint_experiment` is the unit every figure benchmark is
built from: it executes the checkpoint dump and the restart read as two
such jobs on a simulated machine and reports virtual-time results plus
file-system counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..amr.hierarchy import GridHierarchy
from ..core.trace import IOTrace, trace_filesystem
from ..enzo.io_base import IOStrategy
from ..enzo.state import RankState
from ..mpi.runner import run_spmd
from ..pfs.base import FSCounters
from ..topology.machine import Machine

__all__ = [
    "ExperimentResult",
    "JobResult",
    "OverlapResult",
    "run_checkpoint_experiment",
    "run_job",
    "run_overlap_experiment",
    "run_traced_experiment",
]


@dataclass
class ExperimentResult:
    """Timings (simulated seconds) and volumes for one run."""

    machine: str
    strategy: str
    nprocs: int
    write_time: float
    read_time: float
    write_phases: dict
    read_phases: dict
    bytes_written: int
    bytes_read: int
    fs_write_requests: int
    fs_read_requests: int
    #: recovery events (retries/degradations) across write + read phases
    fs_recoveries: int = 0

    #: column names matching :meth:`row` (keep the two in sync).
    HEADERS = ["machine", "strategy", "P", "write [s]", "read [s]", "recov"]

    def row(self) -> list:
        return [
            self.machine,
            self.strategy,
            self.nprocs,
            f"{self.write_time:.3f}",
            f"{self.read_time:.3f}",
            self.fs_recoveries,
        ]


@dataclass
class JobResult:
    """One measured SPMD job."""

    results: list  # per-rank return values
    elapsed: float  # simulated makespan (max over rank clocks)
    counters: FSCounters  # the job's own file-system counts (a snapshot)


def run_job(
    machine: Machine, program, *, nprocs: int, args=(), **run_spmd_kwargs
) -> JobResult:
    """Run ``program`` on ``machine`` as one independently measured job.

    Device timelines and file-system counters are zeroed first, so neither
    queue state nor counts leak in from whatever ran on the machine before;
    stored files and cache contents stay.  Every bench cell, CLI command
    and tuner round is made of these.
    """
    fs = machine.fs
    if fs is None:
        raise ValueError("machine has no file system")
    machine.reset_timing()
    fs.counters.reset()
    res = run_spmd(
        machine, program, nprocs=nprocs, args=args, **run_spmd_kwargs
    )
    return JobResult(res.results, res.elapsed, replace(fs.counters))


def run_checkpoint_experiment(
    machine: Machine,
    strategy: IOStrategy,
    hierarchy: GridHierarchy,
    *,
    nprocs: int | None = None,
    base: str = "ckpt",
    do_read: bool = True,
    read_op: str = "initial",
    read_hierarchy: GridHierarchy | None = None,
) -> ExperimentResult:
    """Dump ``hierarchy`` with ``strategy`` on ``machine``, then read back.

    The write and the read run as separate SPMD jobs against the same file
    system (so the read consumes the write's real bytes); times are the
    virtual-clock maxima across ranks for each operation alone.

    ``read_op`` selects the read path the paper's figures measure:
    ``"initial"`` (new-simulation read: every grid partitioned among all
    processors -- HDF4 reads through P0, the parallel strategies read
    collectively) or ``"restart"`` (round-robin whole-subgrid reads).
    """
    if read_op not in ("initial", "restart"):
        raise ValueError(f"unknown read_op {read_op!r}")
    nprocs = nprocs or machine.nprocs

    def write_program(comm, hierarchy, base):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        return strategy.write_checkpoint(comm, state, base)

    wjob = run_job(machine, write_program, nprocs=nprocs,
                   args=(hierarchy, base))
    read_time = 0.0
    read_phases: dict = {}
    rcounters = FSCounters()
    if do_read:
        # The read experiment consumes the *initial grids* when a separate
        # read hierarchy is given (the paper's new-simulation read measures
        # different data than the dump).  Creating their files is not a
        # measured job: it runs on the write job's timelines and counters.
        read_base = base
        if read_hierarchy is not None and read_hierarchy is not hierarchy:
            read_base = f"{base}.init"
            run_spmd(machine, write_program, nprocs=nprocs,
                     args=(read_hierarchy, read_base))

        def read_program(comm):
            if read_op == "initial":
                _state, stats = strategy.read_initial(comm, read_base)
            else:
                _state, stats = strategy.read_checkpoint(comm, read_base)
            return stats

        rjob = run_job(machine, read_program, nprocs=nprocs)
        read_time = max(s.elapsed for s in rjob.results)
        read_phases = _merge_phases([s.phases for s in rjob.results])
        rcounters = rjob.counters

    return ExperimentResult(
        machine=machine.name,
        strategy=strategy.name,
        nprocs=nprocs,
        write_time=max(s.elapsed for s in wjob.results),
        read_time=read_time,
        write_phases=_merge_phases([s.phases for s in wjob.results]),
        read_phases=read_phases,
        bytes_written=wjob.counters.bytes_written,
        bytes_read=rcounters.bytes_read,
        fs_write_requests=wjob.counters.writes,
        fs_read_requests=rcounters.reads,
        fs_recoveries=wjob.counters.recoveries + rcounters.recoveries,
    )


def run_traced_experiment(
    machine: Machine,
    strategy: IOStrategy,
    hierarchy: GridHierarchy,
    *,
    include_meta: bool = True,
    **kwargs,
) -> tuple[ExperimentResult, IOTrace]:
    """:func:`run_checkpoint_experiment` with the file system traced.

    The trace is detached before returning, so the machine can be reused
    untraced; it covers everything the experiment did (including untimed
    setup writes for a separate read hierarchy, if one was passed).
    """
    if machine.fs is None:
        raise ValueError("machine has no file system")
    with trace_filesystem(machine.fs, include_meta=include_meta) as trace:
        result = run_checkpoint_experiment(
            machine, strategy, hierarchy, **kwargs
        )
    return result, trace


@dataclass
class OverlapResult:
    """One Enzo driver run: makespan plus the I/O cost the ranks *saw*.

    ``write_time`` sums each rank's per-dump exposed elapsed time (post +
    commit for an overlapped dump; the full dump for a synchronous one)
    and takes the maximum across ranks.  ``makespan`` is the virtual-time
    span of the whole run -- compute included -- which is what overlap
    actually shrinks.
    """

    machine: str
    strategy: str
    nprocs: int
    overlap: bool
    dumps: int
    makespan: float
    write_time: float
    write_phases: dict
    bytes_written: int
    fs_write_requests: int
    fs_recoveries: int
    #: each rank's ``EnzoSimulation.run`` summary (dump lists, per-stream
    #: times and bytes), for callers that reduce the run differently
    summaries: list = field(default_factory=list, repr=False)

    @property
    def effective_write_bw(self) -> float:
        """Bytes per *exposed* I/O second (MB/s)."""
        if self.write_time <= 0:
            return 0.0
        return self.bytes_written / self.write_time / 2**20


def run_overlap_experiment(
    machine: Machine,
    strategy: IOStrategy,
    config,
    *,
    nprocs: int | None = None,
    base: str = "dump",
) -> OverlapResult:
    """Run the Enzo driver (compute cycles + periodic dumps) on ``machine``.

    With ``config.overlap`` and an async-capable strategy, dump *k* drains
    in the background while cycle *k+1* computes (double-buffered
    write-behind); the returned ``write_time`` then counts only the time
    the application was actually blocked on I/O.  The workload hierarchy
    is built fresh from ``config`` so repeated runs are independent.
    """
    from ..enzo.simulation import EnzoSimulation

    nprocs = nprocs or machine.nprocs
    sim = EnzoSimulation(
        config=config,
        strategy=strategy,
        hierarchy=EnzoSimulation.build_initial_hierarchy(config),
    )
    job = run_job(machine, lambda comm: sim.run(comm, base=base), nprocs=nprocs)
    summaries = job.results
    return OverlapResult(
        machine=machine.name,
        strategy=strategy.name,
        nprocs=nprocs,
        overlap=bool(getattr(config, "overlap", False)),
        dumps=len(summaries[0]["dumps"]),
        makespan=job.elapsed,
        write_time=max(s["write_time"] for s in summaries),
        write_phases=_merge_phases(
            [_sum_phases(s["write_stats"]) for s in summaries]
        ),
        bytes_written=job.counters.bytes_written,
        fs_write_requests=job.counters.writes,
        fs_recoveries=job.counters.recoveries,
        summaries=summaries,
    )


def _sum_phases(stats: list) -> dict:
    """Total per phase across one rank's dumps."""
    out: dict = {}
    for s in stats:
        for k, v in s.phases.items():
            out[k] = out.get(k, 0.0) + v
    return out


def _merge_phases(per_rank: list[dict]) -> dict:
    """Max across ranks per phase (the critical-path view)."""
    out: dict = {}
    for phases in per_rank:
        for k, v in phases.items():
            out[k] = max(out.get(k, 0.0), v)
    return out
