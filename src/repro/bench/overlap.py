"""The compute/checkpoint-overlap bench behind ``repro overlap``.

Runs the same Enzo workload twice per machine -- a synchronous strategy
dumping inline, then its async counterpart with double-buffered
write-behind -- and reports the makespan speedup plus the effective
bandwidth each variant observed.  The committed artifact is
``BENCH_overlap.json``; the bench fails (exit 1 through the CLI) if any
pair's speedup is not strictly above 1.0, so "async stopped helping" is
a gated regression just like a paper-trend inversion.

Each (machine, sync, async, problem, nprocs, ncycles) pair is one
executor cell (:class:`OverlapPair`): it runs both sides back to back
and reduces to the canonical comparison dict, so the bench fans out and
caches through :func:`repro.bench.executor.run_cells` like every other
matrix.  The gate has no baseline diff: :data:`GATE` gates through
:func:`check_overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..core.report import format_table
from ..topology.presets import PRESETS
from .cellrunner import Gate
from .runners import OverlapResult, run_overlap_experiment

__all__ = [
    "GATE",
    "OVERLAP_MATRIX",
    "OverlapComparison",
    "OverlapPair",
    "run_overlap_pair",
    "check_overlap",
]


@dataclass(frozen=True)
class OverlapPair:
    """One executor cell: sync vs async on one machine/workload."""

    machine: str
    sync: str
    async_: str
    problem: str
    nprocs: int = 8
    ncycles: int = 3

    @property
    def id(self) -> str:
        return f"overlap:{self.machine}:{self.async_}:P{self.nprocs}"


#: One pair per machine the paper measures, the Figure-6 Origin2000
#: workload first.
OVERLAP_MATRIX = (
    OverlapPair("origin2000", "mpi-io", "mpi-io-async", "AMR32"),
    OverlapPair("chiba_city", "mpi-io", "mpi-io-async", "AMR32"),
    OverlapPair("chiba_city_local", "mpi-io", "mpi-io-async", "AMR64"),
)


@dataclass
class OverlapComparison:
    """Sync-vs-async outcome for one machine/workload."""

    machine: str
    problem: str
    nprocs: int
    ncycles: int
    sync: OverlapResult
    async_: OverlapResult

    @property
    def speedup(self) -> float:
        """Makespan ratio (sync / async); > 1.0 means overlap won."""
        if self.async_.makespan <= 0:
            return 0.0
        return self.sync.makespan / self.async_.makespan

    @property
    def bw_speedup(self) -> float:
        """Effective-bandwidth ratio (async / sync)."""
        sync_bw = self.sync.effective_write_bw
        if sync_bw <= 0:
            return 0.0
        return self.async_.effective_write_bw / sync_bw

    def to_dict(self) -> dict:
        def side(r: OverlapResult) -> dict:
            return {
                "strategy": r.strategy,
                "overlap": r.overlap,
                "dumps": r.dumps,
                "makespan_s": round(r.makespan, 9),
                "exposed_write_s": round(r.write_time, 9),
                "bytes_written": r.bytes_written,
                "effective_write_bw_mb_s": round(r.effective_write_bw, 6),
            }

        return {
            "machine": self.machine,
            "problem": self.problem,
            "nprocs": self.nprocs,
            "ncycles": self.ncycles,
            "sync": side(self.sync),
            "async": side(self.async_),
            "speedup": round(self.speedup, 6),
            "bw_speedup": round(self.bw_speedup, 6),
        }


def run_overlap_pair(pair: OverlapPair) -> dict:
    """Run one pair's sync and async sides; return the comparison dict."""
    from ..enzo.simulation import EnzoConfig
    from ..iostack import registry

    runs = {}
    for name, overlap in ((pair.sync, False), (pair.async_, True)):
        machine = PRESETS[pair.machine](nprocs=pair.nprocs)
        config = EnzoConfig(
            problem=pair.problem, ncycles=pair.ncycles, dump_every=1,
            overlap=overlap,
        )
        runs[name] = run_overlap_experiment(
            machine, registry.create(name), config, nprocs=pair.nprocs
        )
    return OverlapComparison(
        machine=pair.machine,
        problem=pair.problem,
        nprocs=pair.nprocs,
        ncycles=pair.ncycles,
        sync=runs[pair.sync],
        async_=runs[pair.async_],
    ).to_dict()


def check_overlap(records: dict[str, dict]) -> list[str]:
    """The gate over a finished bench; returns the violations.

    Every pair's makespan speedup must be strictly above 1.0.  Beyond
    that, the paper's claim that the overlap win is largest where storage
    is slowest relative to compute -- the PVFS-over-fast-Ethernet cluster
    -- is pinned here, because this bench is the one place sync and async
    run the *same* workload (the regression matrix's async cells compare
    against bare single-dump sync cells, a different denominator).
    """
    runs = list(records.values())
    problems = [
        f"overlap REGRESSION: {r['machine']}/{r['problem']} speedup "
        f"{r['speedup']:.3f} <= 1.0"
        for r in runs if r["speedup"] <= 1.0
    ]
    by_machine = {r["machine"]: r for r in runs}
    pvfs = by_machine.get("chiba_city_local")
    if pvfs is not None and len(by_machine) > 1:
        best = max(runs, key=lambda r: r["bw_speedup"])
        if best["machine"] != "chiba_city_local":
            problems.append(
                "overlap TREND VIOLATED: effective-bandwidth win should be "
                "largest on chiba_city_local (PVFS/fast-Ethernet), but "
                f"{best['machine']} wins ({best['bw_speedup']:.2f}x vs "
                f"{pvfs['bw_speedup']:.2f}x)"
            )
    return problems


# -- the gate row -------------------------------------------------------------


def _plan(gate: Gate, args) -> tuple[list, dict]:
    """``--machine`` picks pairs; ``--procs``/``--cycles`` resize them."""
    for flag, value in (("--procs", args.procs), ("--cycles", args.cycles)):
        if value < 1:
            raise ValueError(f"{flag} must be a positive integer (got {value})")
    have = [p.machine for p in gate.matrix]
    missing = sorted(set(args.machine or ()) - set(have))
    if missing:
        raise ValueError(
            f"no overlap pair for machine(s) {', '.join(missing)} "
            f"(have: {', '.join(have)})"
        )
    return [
        replace(p, nprocs=args.procs, ncycles=args.cycles)
        for p in gate.matrix
        if not args.machine or p.machine in args.machine
    ], {}


def _table(records: dict[str, dict]) -> str:
    return format_table(
        ["machine", "problem", "sync", "async", "sync [s]", "async [s]",
         "speedup", "eff-bw"],
        [
            [
                c["machine"],
                c["problem"],
                c["sync"]["strategy"],
                c["async"]["strategy"],
                f"{c['sync']['makespan_s']:.3f}",
                f"{c['async']['makespan_s']:.3f}",
                f"{c['speedup']:.2f}x",
                f"{c['bw_speedup']:.2f}x",
            ]
            for c in records.values()
        ],
    )


GATE = Gate(
    family="overlap",
    help="compute/checkpoint overlap bench: sync vs write-behind "
         "(writes BENCH_overlap.json, exit 1 if overlap stops winning)",
    matrix=OVERLAP_MATRIX,
    run=lambda pair, extra: run_overlap_pair(pair),
    describe=lambda p: (
        f"{p.machine}/{p.problem} P={p.nprocs}: {p.sync} vs {p.async_}"
    ),
    options=(
        ("--procs", dict(type=int, default=8)),
        ("--cycles", dict(type=int, default=3)),
        ("--machine", dict(
            action="append", default=None, choices=sorted(PRESETS),
            help="restrict to these machine presets (repeatable)")),
    ),
    plan=_plan,
    out_default="BENCH_overlap.json",
    banner=lambda cells: (
        f"{len(cells)} machine(s), P={cells[0].nprocs}, "
        f"{cells[0].ncycles} cycles"
    ),
    table=_table,
    check=check_overlap,
)
