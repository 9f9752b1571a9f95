"""Paper-shape assertions that no regress trend or unit test already pins.

These came from the retired ``benchmarks/`` directory (see the mapping
table in CHANGES.md, PR 17): every assertion there that a ``repro regress``
trend or a tier-1 test already checked was dropped, and the rest live here
as plain asserts on laptop-scale workloads.

Two kinds:

* inequalities between cells of the regress matrix are read off the
  committed ``BENCH_figures.json`` -- the full-matrix conformance test
  proves that file equals a live run, so nothing is re-simulated;
* ablations that need a machine, hint or cost model outside the matrix
  run live.
"""

import functools
import json
import os

import numpy as np
import pytest

from repro.bench import (
    build_initial_workload,
    build_workload,
    run_checkpoint_experiment,
)
from repro.enzo import CheckpointLayout, HierarchyMeta, WorkloadModel
from repro.enzo.io_base import ComposedStrategy
from repro.hdf5 import H5Costs
from repro.iostack import registry
from repro.iostack.formats import HDF5Format
from repro.iostack.layouts import SharedFileLayoutPlanner
from repro.iostack.transports import CollectiveTransport
from repro.mpi import run_spmd
from repro.mpi.datatypes import FLOAT64, Subarray
from repro.mpiio import File, Hints
from repro.topology import chiba_city, ibm_sp2, origin2000

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- shapes between pinned matrix cells ---------------------------------------

#: (id, left cell, metric, relation, factor, right cell): ``left <rel>
#: factor * right`` over the committed figure records.
PINNED_SHAPES = [
    # The fig6 trends pin bandwidths; these pin the times behind them.
    ("fig6-mpiio-write-wins-P16",
     "fig6:mpi-io:16", "write_s", "lt", 1.0, "fig6:hdf4:16"),
    ("fig6-mpiio-read-wins-P16",
     "fig6:mpi-io:16", "read_s", "lt", 1.0, "fig6:hdf4:16"),
    ("fig6-mpiio-initial-read-wins-P8",
     "fig6:mpi-io:8", "read_s", "lt", 1.0, "fig6:hdf4:8"),
    ("fig6-mpiio-read-improves-with-procs",
     "fig6:mpi-io:16", "read_s", "lt", 1.0, "fig6:mpi-io:2"),
    ("fig6-hdf4-read-stays-serialised",
     "fig6:hdf4:16", "read_s", "gt", 0.8, "fig6:hdf4:2"),
    ("fig8-ethernet-dominates-hdf4-write",
     "fig8:hdf4:8", "write_s", "gt", 1.5, "fig6:hdf4:8"),
    ("fig8-ethernet-dominates-hdf4-read",
     "fig8:hdf4:8", "read_s", "gt", 1.5, "fig6:hdf4:8"),
    ("fig8-ethernet-dominates-mpiio-write",
     "fig8:mpi-io:8", "write_s", "gt", 1.5, "fig6:mpi-io:8"),
    ("fig8-ethernet-dominates-mpiio-read",
     "fig8:mpi-io:8", "read_s", "gt", 1.5, "fig6:mpi-io:8"),
    ("fig9-mpiio-read-much-better",
     "fig9:mpi-io:8", "read_s", "lt", 0.7, "fig9:hdf4:8"),
    ("fig10-hdf5-write-much-worse",
     "fig10:hdf5:8", "write_s", "gt", 2.0, "fig10:mpi-io:8"),
]


@pytest.fixture(scope="module")
def figure_cells():
    with open(os.path.join(REPO_ROOT, "BENCH_figures.json")) as f:
        return json.load(f)["cells"]


@pytest.mark.parametrize(
    "left, metric, relation, factor, right",
    [row[1:] for row in PINNED_SHAPES], ids=[row[0] for row in PINNED_SHAPES],
)
def test_pinned_figure_shape(figure_cells, left, metric, relation, factor,
                             right):
    lhs = figure_cells[left][metric]
    rhs = factor * figure_cells[right][metric]
    assert lhs < rhs if relation == "lt" else lhs > rhs, (lhs, relation, rhs)


# -- GPFS tokens (the paper's explanation of Figure 7) ------------------------


@functools.lru_cache(maxsize=None)
def _gpfs_write(name, problem="AMR16", cb_align=0):
    """One P=32 dump on the SP preset: (token revocations, write time)."""
    machine = ibm_sp2(nprocs=32)
    strategy = registry.create(name, hints=Hints(cb_align=cb_align))
    result = run_checkpoint_experiment(
        machine, strategy, build_workload(problem), nprocs=32, do_read=False
    )
    return machine.fs.token_revocations, result.write_time


def test_gpfs_token_thrash_is_the_shared_files_not_hdf4s():
    """HDF4's file-per-grid sidesteps the shared-write tokens; the MPI-IO
    strategy's one shared file pays them."""
    shared, _ = _gpfs_write("mpi-io")
    per_grid, _ = _gpfs_write("hdf4")
    assert shared > 10 * max(per_grid, 1)


def test_stripe_aligned_domains_reduce_token_traffic():
    """cb_align = stripe size keeps each domain's stripes on one owner."""
    aligned, _ = _gpfs_write("mpi-io", cb_align=256 * 1024)
    unaligned, _ = _gpfs_write("mpi-io")
    assert aligned <= unaligned


def test_gpfs_penalty_shrinks_for_the_larger_problem():
    """Larger requests amortise the fixed token/queue costs ("for larger
    problem size ... this situation can be meliorated in some degree")."""

    def ratio(problem):
        return _gpfs_write("mpi-io", problem)[1] / _gpfs_write("hdf4", problem)[1]

    assert ratio("AMR32") < ratio("AMR16")


# -- PVFS (Figure 8 and the list-I/O successor optimisation) ------------------


def test_pvfs_bandwidth_improves_with_problem_size():
    """'Results tend to be better for larger size of problem'."""

    def mb_per_sim_second(problem):
        r = run_checkpoint_experiment(
            chiba_city(8), registry.create("mpi-io"), build_workload(problem),
            nprocs=8, do_read=False,
        )
        return (r.bytes_written / 2**20) / r.write_time

    assert mb_per_sim_second("AMR32") > mb_per_sim_second("AMR16")


def _listio_strided_write(hints):
    """Strided independent column-block writes on PVFS; (time, requests)."""

    def program(comm):
        shape = (32, 32)
        n = shape[1] // comm.size
        ftype = Subarray(shape, (shape[0], n), (0, comm.rank * n), FLOAT64)
        fh = File.open(comm, "lio", "w", hints=hints)
        fh.set_view(0, FLOAT64, ftype)
        t0 = comm.clock
        fh.write(np.full((shape[0], n), 1.0))
        elapsed = comm.clock - t0
        fh.close()
        return elapsed

    machine = chiba_city(8)
    res = run_spmd(machine, program, nprocs=8)
    return max(res.results), machine.fs.counters.writes


def test_listio_beats_per_segment_writes_on_pvfs():
    """The access list travels in one request, so strided independent
    access wins when per-request (iod) costs dominate."""
    t_listio, reqs_listio = _listio_strided_write(Hints(use_listio=True))
    t_naive, reqs_naive = _listio_strided_write(Hints(ds_write=False))
    assert t_listio < t_naive
    assert reqs_listio < reqs_naive / 4


# -- read paths ---------------------------------------------------------------


def test_hdf4_initial_read_is_the_slower_read_path():
    """The new-simulation read funnels every grid through P0; the restart
    read hands whole subgrids out round-robin."""
    h = build_initial_workload("AMR32")

    def read_time(read_op):
        return run_checkpoint_experiment(
            origin2000(nprocs=8), registry.create("hdf4"), h, nprocs=8,
            read_op=read_op,
        ).read_time

    assert read_time("initial") >= read_time("restart")


# -- HDF5 library overheads (Figure 10's mechanism) ---------------------------


def test_hdf5_gap_is_library_overhead_not_the_data_path(figure_cells):
    """With the per-dataset costs ablated HDF5 approaches MPI-IO: the gap
    is create/close sync, metadata writes and packing.  The stock run is
    the pinned ``fig10:hdf5:4`` cell (same machine, workload and P)."""
    free = H5Costs(dataset_create=0.0, dataset_close=0.0,
                   attribute_write=0.0, pack_per_run=0.0, open_close=0.0)
    ablated = ComposedStrategy(
        "hdf5", SharedFileLayoutPlanner(), CollectiveTransport(),
        HDF5Format(Hints(), costs=free),
    )
    result = run_checkpoint_experiment(
        origin2000(nprocs=4), ablated, build_workload("AMR32"), nprocs=4,
        do_read=False,
    )
    assert result.write_time < 0.6 * figure_cells["fig10:hdf5:4"]["write_s"]


# -- Table 1 ------------------------------------------------------------------


@pytest.mark.parametrize("problem", ["AMR16", "AMR32"])
def test_materialised_hierarchy_matches_the_byte_model(problem):
    hierarchy = build_workload(problem)
    measured = hierarchy.total_data_nbytes()
    layout = CheckpointLayout(HierarchyMeta.from_hierarchy(hierarchy))
    assert layout.total_nbytes == measured
    model = WorkloadModel(root_dims=hierarchy.root.dims)
    # The analytic read volume assumes a refined fraction; the measured
    # hierarchy must land within a broad factor of it.
    assert 0.2 < measured / model.read_bytes() < 5.0
