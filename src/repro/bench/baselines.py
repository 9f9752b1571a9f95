"""The paper-figure regression matrix: cells and trend assertions.

This module is the declarative half of the regression gate
(:mod:`repro.bench.regression` is the engine).  It pins down

* **cells** -- the (figure, machine preset, problem size, strategy, nprocs)
  grid behind Figures 5-10 of the paper, sized so the full matrix runs in
  well under a minute while every qualitative result the paper reports is
  present in the model (per-figure problem sizes are chosen where the
  mechanism shows: the GPFS inversions need the communication-dominated
  AMR16, the local-disk write scaling needs AMR64);

* **trend assertions** -- the paper's qualitative results transcribed as
  machine-checkable comparisons between cells ("MPI-IO beats HDF4 write
  bandwidth on XFS at >= 4 procs", "HDF5 <= MPI-IO everywhere", "GPFS
  16-proc read inversion", ...).  A perf PR that inverts a paper result
  trips these even if it updates the bandwidth baseline.

The committed ``BENCH_figures.json`` baseline every run is compared
against is the first point of the repo's perf trajectory:
``python -m repro regress --update-baseline`` refreshes it (review the
diff!), and plain ``python -m repro regress`` is the blocking gate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Cell",
    "Trend",
    "MATRIX",
    "TRENDS",
    "cell_by_id",
]


@dataclass(frozen=True)
class Cell:
    """One cell of the figure grid: a single experiment to run and pin."""

    figure: str
    strategy: str  # "hdf4" | "mpi-io" | "hdf5" | fig5: "two-phase"/"independent"
    nprocs: int
    problem: str  # scenario name ("-" for the fig5 access-pattern cells)
    machine: str  # topology preset name
    do_read: bool = True
    read_op: str = "initial"  # "initial" | "restart" (the read path measured)

    @property
    def id(self) -> str:
        return f"{self.figure}:{self.strategy}:{self.nprocs}"


@dataclass(frozen=True)
class Trend:
    """A paper result as a comparison between two cells' metrics.

    Asserts ``metric(left) <relation> metric(right)`` over the *current*
    run's results -- trends are properties of the model, not of the
    baseline, so they hold (or fail) regardless of tolerance bands.

    With ``left_div``/``right_div`` set, each side is the *ratio* of the
    metric between two cells ("the async speedup on PVFS beats the async
    speedup on XFS"), which pins relative wins without pinning absolute
    bandwidths.

    ``rfactor`` scales the right-hand side before comparing ("scda keeps
    >= 70% of the raw format's bandwidth"); the ``eq`` relation compares
    verbatim and is how string metrics -- the scda partition-invariance
    file digests -- are pinned.

    ``right_metric`` reads a *different* metric on the right-hand cell
    ("plot bytes stay below checkpoint bytes on the same run"), which is
    how the scenario cadence cells compare their two output streams
    without needing a second cell.
    """

    id: str
    description: str
    metric: str  # key of the per-cell result dict (write_bw, read_s, ...)
    left: str  # cell id
    relation: str  # "gt" | "ge" | "lt" | "le" | "eq"
    right: str  # cell id
    left_div: str | None = None  # cell id dividing the left metric
    right_div: str | None = None  # cell id dividing the right metric
    rfactor: float = 1.0  # right-hand scale factor (numeric metrics only)
    right_metric: str | None = None  # metric read on the right cell (default: metric)

    @property
    def cells(self) -> tuple[str, ...]:
        """Every cell id this trend reads (for availability checks)."""
        return tuple(
            c for c in (self.left, self.right, self.left_div, self.right_div)
            if c is not None
        )

    def holds(self, lhs, rhs) -> bool:
        if self.relation == "eq":
            return lhs == rhs
        return {
            "gt": lhs > rhs,
            "ge": lhs >= rhs,
            "lt": lhs < rhs,
            "le": lhs <= rhs,
        }[self.relation]


def _grid(figure, machine, problem, strategies, procs, do_read=True):
    return [
        Cell(figure, s, p, problem, machine, do_read)
        for p in procs
        for s in strategies
    ]


#: The full Figure 5-10 grid.
MATRIX: tuple[Cell, ...] = tuple(
    # Figure 5: the request-pattern contrast behind everything else -- the
    # same strided (1, Block, 1) write issued through two-phase collective
    # I/O vs naive independent writes (no data sieving, so the raw pattern
    # reaches the file system).
    [
        Cell("fig5", "two-phase", 8, "-", "origin2000", do_read=False),
        Cell("fig5", "independent", 8, "-", "origin2000", do_read=False),
    ]
    # Figure 6: Origin2000/XFS -- MPI-IO beats sequential HDF4 both ways.
    + _grid("fig6", "origin2000", "AMR32", ["hdf4", "mpi-io"], [2, 4, 8, 16])
    # Figure 7: IBM SP/GPFS -- MPI-IO *loses* (token thrash, SMP queues);
    # AMR16 keeps the run communication-dominated, where the paper's
    # 16-processor read inversion also appears.
    + _grid("fig7", "ibm_sp2", "AMR16", ["hdf4", "mpi-io"], [16, 32])
    # Figure 8: Chiba City/PVFS over fast Ethernet -- MPI-IO reads win via
    # data sieving + server caching.
    + _grid("fig8", "chiba_city", "AMR32", ["hdf4", "mpi-io"], [8])
    # Figure 9: node-local disks -- MPI-IO scales with P, HDF4 cannot;
    # AMR64 is where the write scaling is decisive.
    + _grid("fig9", "chiba_city_local", "AMR64", ["hdf4", "mpi-io"], [2, 4, 8])
    # Figure 10: parallel HDF5 trails MPI-IO at every processor count.
    # The hdf5-aligned cells pin the paper's Section 5 remedy (metadata
    # aggregation + aligned data) alongside the strategies it improves on.
    + _grid(
        "fig10", "origin2000", "AMR32", ["mpi-io", "hdf5", "hdf5-aligned"],
        [4, 8, 16],
        do_read=False,
    )
    # Asynchronous variants (repro.aio): measured under compute/checkpoint
    # overlap (the Enzo driver with double-buffered write-behind), so
    # write_bw is the *effective* bandwidth the application observes.
    # One async cell next to each machine's synchronous anchor.
    + _grid("fig6", "origin2000", "AMR32", ["mpi-io-async"], [4, 8],
            do_read=False)
    + _grid("fig8", "chiba_city", "AMR32", ["mpi-io-async"], [8],
            do_read=False)
    + _grid("fig9", "chiba_city_local", "AMR64", ["mpi-io-async"], [8],
            do_read=False)
    + _grid("fig10", "origin2000", "AMR32",
            ["hdf5-async", "hdf5-aligned-async"], [8], do_read=False)
    # Lustre what-if (post-paper): stripe-tuned collective I/O against the
    # 4-wide volume default, with the hdf4 file-per-grid layout alongside
    # so the single-MDS metadata explosion is pinned too.
    + _grid("lustre", "lustre", "AMR32",
            ["hdf4", "mpi-io", "mpi-io-lustre"], [4, 8])
    # scda serial-equivalent format: the committed file must be
    # byte-identical for every P (pinned by file_digest eq trends below),
    # including P=1, the serial reference.
    + _grid("scda", "origin2000", "AMR32", ["mpi-io-scda"], [1, 2, 4, 8])
    + _grid("scda", "origin2000", "AMR32", ["mpi-io-scda-async"], [8],
            do_read=False)
    # Parameter-file scenarios (repro.scenarios): the gated workloads that
    # exercise the ingestion layer end to end.  foggie-nested's deep zoom
    # hierarchy inflates the metadata share of the file-per-grid layout;
    # nyx-plotfile runs the two-stream Enzo driver (plot cadence at twice
    # the checkpoint cadence, plus a redshift-triggered dump); and
    # flashx-particles measures the particle-heavy *restart* read.
    + _grid("foggie-nested", "origin2000", "foggie-nested",
            ["hdf4", "mpi-io"], [4])
    + [Cell("nyx-plotfile", "mpi-io", 8, "nyx-plotfile", "origin2000",
            do_read=False)]
    + [Cell("flashx-particles", "mpi-io", 8, "flashx-particles",
            "origin2000", read_op="restart")]
)


def _check_matrix_strategies() -> None:
    """Every AMR cell's strategy must be a registered composition.

    The fig5 access-pattern cells use synthetic pattern names
    ("two-phase"/"independent") that are not checkpoint strategies and are
    run by a dedicated driver, so they are exempt.
    """
    from ..iostack import registry

    known = set(registry.names())
    unknown = sorted(
        {c.strategy for c in MATRIX if c.figure != "fig5"} - known
    )
    if unknown:
        raise ValueError(
            f"MATRIX references unregistered strategies: {', '.join(unknown)}"
        )


_check_matrix_strategies()


def _t(id, description, metric, left, relation, right):
    return Trend(id, description, metric, left, relation, right)


#: The paper's qualitative results (Figures 5-10), machine-checkable.
TRENDS: tuple[Trend, ...] = tuple(
    [
        _t(
            "fig5-collective-fewer-requests",
            "two-phase collective I/O turns many small interleaved writes "
            "into few large sequential ones (Fig 5)",
            "fs_write_requests",
            "fig5:two-phase:8", "lt", "fig5:independent:8",
        ),
        _t(
            "fig5-collective-faster",
            "the collective request pattern is also faster on XFS (Fig 5)",
            "write_s",
            "fig5:two-phase:8", "lt", "fig5:independent:8",
        ),
    ]
    + [
        _t(
            f"fig6-write-bw-P{p}",
            f"MPI-IO write bandwidth beats HDF4 on Origin2000/XFS at P={p} "
            "(Fig 6)",
            "write_bw", f"fig6:mpi-io:{p}", "gt", f"fig6:hdf4:{p}",
        )
        for p in (4, 8, 16)
    ]
    + [
        _t(
            f"fig6-read-bw-P{p}",
            f"MPI-IO read beats the serial HDF4 read path at P={p} (Fig 6)",
            "read_bw", f"fig6:mpi-io:{p}", "gt", f"fig6:hdf4:{p}",
        )
        for p in (2, 4, 8, 16)
    ]
    + [
        _t(
            f"fig7-write-inversion-P{p}",
            f"on SP/GPFS the MPI-IO write is *slower* than HDF4 at P={p} "
            "(token thrash + SMP I/O queues, Fig 7)",
            "write_s", f"fig7:mpi-io:{p}", "gt", f"fig7:hdf4:{p}",
        )
        for p in (16, 32)
    ]
    + [
        _t(
            "fig7-read-inversion-P16",
            "the GPFS 16-processor read inversion: MPI-IO reads lose to "
            "HDF4 at P=16 (Fig 7)",
            "read_s", "fig7:mpi-io:16", "gt", "fig7:hdf4:16",
        ),
        _t(
            "fig8-read-sieving-P8",
            "on PVFS/fast-Ethernet the MPI-IO read wins via data sieving "
            "and server caching (Fig 8)",
            "read_s", "fig8:mpi-io:8", "lt", "fig8:hdf4:8",
        ),
    ]
    + [
        _t(
            f"fig9-write-P{p}",
            f"node-local disks: MPI-IO write beats HDF4 at P={p} (Fig 9)",
            "write_s", f"fig9:mpi-io:{p}", "lt", f"fig9:hdf4:{p}",
        )
        for p in (2, 4, 8)
    ]
    + [
        _t(
            "fig9-write-scales",
            "node-local MPI-IO write time falls as processors grow (Fig 9)",
            "write_s", "fig9:mpi-io:8", "lt", "fig9:mpi-io:2",
        ),
        _t(
            "fig9-read-P8",
            "node-local MPI-IO read beats the HDF4 redistribution read "
            "at P=8 (Fig 9)",
            "read_s", "fig9:mpi-io:8", "lt", "fig9:hdf4:8",
        ),
    ]
    + [
        _t(
            f"fig10-hdf5-bw-P{p}",
            f"parallel HDF5 write bandwidth trails MPI-IO at P={p} "
            "(per-dataset overheads, Fig 10)",
            "write_bw", f"fig10:hdf5:{p}", "le", f"fig10:mpi-io:{p}",
        )
        for p in (4, 8, 16)
    ]
    + [
        _t(
            f"fig10-aligned-bw-P{p}",
            "metadata aggregation + alignment recovers HDF5 write bandwidth "
            f"at P={p} (paper Section 5 remedy)",
            "write_bw", f"fig10:hdf5-aligned:{p}", "ge", f"fig10:hdf5:{p}",
        )
        for p in (4, 8, 16)
    ]
    + [
        _t(
            "fig10-hdf5-flat",
            "HDF5 write time does not improve with processors (its "
            "per-dataset costs are serial, Fig 10)",
            "write_s", "fig10:hdf5:16", "ge", "fig10:hdf5:4",
        ),
    ]
    # -- asynchronous I/O (repro.aio): overlap beats synchronous dumps on
    # every machine, and the relative win is largest on the Chiba City
    # PVFS/fast-Ethernet cluster, where raw bandwidth is scarcest.
    + [
        _t(
            f"async-effective-bw-{sync_cell.replace(':', '-')}",
            "background-flush write-behind beats the synchronous dump's "
            f"bandwidth ({sync_cell})",
            "write_bw", async_cell, "ge", sync_cell,
        )
        for async_cell, sync_cell in (
            ("fig6:mpi-io-async:4", "fig6:mpi-io:4"),
            ("fig6:mpi-io-async:8", "fig6:mpi-io:8"),
            ("fig8:mpi-io-async:8", "fig8:mpi-io:8"),
            ("fig9:mpi-io-async:8", "fig9:mpi-io:8"),
            ("fig10:hdf5-async:8", "fig10:hdf5:8"),
            ("fig10:hdf5-aligned-async:8", "fig10:hdf5-aligned:8"),
        )
    ]
    # -- Lustre (post-paper): per-file stripe layouts are a real knob, and
    # the single MDS makes the file-per-grid layout strictly worse than it
    # is on file systems without a central namespace server.
    + [
        _t(
            f"lustre-stripe-tuned-P{p}",
            "widening the checkpoint's stripes over all 16 OSTs "
            "(striping_factor/lfs setstripe) beats the 4-wide volume "
            f"default at P={p}",
            "write_bw", f"lustre:mpi-io-lustre:{p}", "ge",
            f"lustre:mpi-io:{p}",
        )
        for p in (4, 8)
    ]
    + [
        Trend(
            id="lustre-mds-explosion",
            description="the file-per-grid restart read pays Lustre's "
            "single MDS an open+namespace-scan cost per grid file: hdf4's "
            "read slowdown relative to one shared file is worse on Lustre "
            "than the same ratio on Figure 9's node-local disks, which "
            "have no central namespace server",
            metric="read_s",
            left="lustre:hdf4:8", left_div="lustre:mpi-io:8",
            relation="gt",
            right="fig9:hdf4:8", right_div="fig9:mpi-io:8",
        ),
    ]
    # -- scda: serial equivalence means the committed file bytes are a pure
    # function of the hierarchy, so every P produces the P=1 digest; the
    # fixed-width headers and block padding must stay cheap next to the raw
    # shared-file format on the same machine/problem/P.
    + [
        Trend(
            id=f"scda-partition-invariant-P{p}",
            description=f"the committed scda checkpoint at P={p} is "
            "byte-identical to the serial P=1 file (partition invariance)",
            metric="file_digest",
            left=f"scda:mpi-io-scda:{p}", relation="eq",
            right="scda:mpi-io-scda:1",
        )
        for p in (2, 4, 8)
    ]
    + [
        Trend(
            id="scda-overhead-bounded",
            description="scda's headers + block padding keep at least 70% "
            "of the raw shared-file write bandwidth (Origin2000, AMR32, "
            "P=8)",
            metric="write_bw",
            left="scda:mpi-io-scda:8", relation="ge",
            right="fig6:mpi-io:8", rfactor=0.7,
        ),
    ]
    + [
        Trend(
            id="async-win-grows-with-procs",
            description="the async win on the Origin2000 grows with process "
            "count: Figure 6's synchronous bandwidth decays as P rises, so "
            "there is more stall for the background flush to hide at P=8 "
            "than at P=4 (the largest-win-on-PVFS claim is pinned by "
            "``repro overlap``, where both sides run the same workload)",
            metric="write_bw",
            left="fig6:mpi-io-async:8", left_div="fig6:mpi-io:8",
            relation="ge",
            right="fig6:mpi-io-async:4", right_div="fig6:mpi-io:4",
        ),
    ]
    # -- parameter-file scenarios: the qualitative claims each gated
    # workload was added to pin.
    + [
        Trend(
            id="foggie-file-per-grid-requests",
            description="on the FOGGIE-style deep zoom hierarchy (nested "
            "initial grids + must-refine regions feeding many small deep "
            "grids) the file-per-grid layout issues more file-system "
            "write requests per megabyte than the shared-file collective "
            "layout on the same workload",
            metric="write_requests_per_mb",
            left="foggie-nested:hdf4:4", relation="gt",
            right="foggie-nested:mpi-io:4",
        ),
        Trend(
            id="foggie-shared-file-dodges-namespace",
            description="the shared-file strategy's metadata share is "
            "insensitive to the deep nesting that inflates hdf4's: on the "
            "same foggie-nested workload mpi-io keeps a lower metadata "
            "ratio than the file-per-grid layout",
            metric="meta_ratio",
            left="foggie-nested:mpi-io:4", relation="lt",
            right="foggie-nested:hdf4:4",
        ),
        Trend(
            id="nyx-plot-cadence-doubles-dumps",
            description="the Nyx parameter file's plot_int=1 / check_int=2 "
            "cadence emits twice as many plot files as checkpoints over "
            "the run",
            metric="plot_dumps",
            left="nyx-plotfile:mpi-io:8", relation="ge",
            right="nyx-plotfile:mpi-io:8", right_metric="ckpt_dumps",
            rfactor=2.0,
        ),
        Trend(
            id="nyx-plot-payload-lighter",
            description="plot files carry a field subset and no particles, "
            "so the whole plot stream moves fewer bytes than the "
            "checkpoint stream of the same run despite dumping twice as "
            "often",
            metric="plot_bytes",
            left="nyx-plotfile:mpi-io:8", relation="lt",
            right="nyx-plotfile:mpi-io:8", right_metric="ckpt_bytes",
        ),
        Trend(
            id="flashx-particles-read-share",
            description="the particle-heavy restart (8x the particles per "
            "cell, whole-subgrid round-robin reads) shifts the run's time "
            "balance toward the read phase compared to the flat AMR32 "
            "initial-read cell on the same machine",
            metric="read_share",
            left="flashx-particles:mpi-io:8", relation="gt",
            right="fig6:mpi-io:8",
        ),
    ]
    # -- the diagnosis of each cell's own trace (``high`` counts the HIGH
    # findings of the insights rules): the paper's reasons for each loss
    # must stay visible to the rule engine.
    + [
        _t(
            f"insights-hdf4-diagnoses-worse-P{p}",
            "the serial file-per-grid HDF4 dump draws more HIGH findings "
            f"than collective MPI-IO at P={p} (Fig 6)",
            "high", f"fig6:hdf4:{p}", "gt", f"fig6:mpi-io:{p}",
        )
        for p in (2, 4, 8, 16)
    ]
    + [
        _t(
            f"insights-hdf5-diagnoses-worse-P{p}",
            "parallel HDF5 interleaves tiny metadata writes with the "
            f"payload, one more HIGH finding than MPI-IO at P={p} (Fig 10)",
            "high", f"fig10:hdf5:{p}", "gt", f"fig10:mpi-io:{p}",
        )
        for p in (4, 8, 16)
    ]
    + [
        _t(
            f"insights-aligned-hdf5-clears-interleave-P{p}",
            "metadata aggregation and alignment (Section 5) remove a HIGH "
            f"finding from the plain HDF5 dump at P={p}",
            "high", f"fig10:hdf5-aligned:{p}", "lt", f"fig10:hdf5:{p}",
        )
        for p in (4, 8, 16)
    ]
)


def cell_by_id(cell_id: str) -> Cell:
    for c in MATRIX:
        if c.id == cell_id:
            return c
    raise KeyError(cell_id)
