"""Copy budget of the bulk data path: one copy per byte per hop.

"No zero-fill twin", "no regrow copy" and "no resident master" are
assertions on traced memory (``conftest.Traced``): *held* is what a step
leaves allocated, *peak* the most it ever had.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.amr import BlockPartition, Grid, GridHierarchy, ParticleSet
from repro.bench import build_initial_workload, build_scale_workload, build_workload
from repro.enzo import RankState
from repro.enzo.meta import HierarchyMeta
from repro.hdf4 import SDFile
from repro.iostack.formats import iter_grid_sd, read_grid_sd, write_grid_sd
from repro.iostack import registry
from repro.mpi import payload_nbytes, run_spmd
from repro.mpiio import ADIOFile
from repro.pfs.blockstore import _PAGE
from repro.scenarios import registry as scenario_registry

from .conftest import Traced, make_machine

#: Python-object noise: headers, dict slots, the frames of the calls made.
SLACK = 48 * 1024


def _hierarchy(dims=(32, 32, 32), nparticles=4096):
    rng = np.random.default_rng(11)
    root = Grid.make_root(dims)
    for name in root.fields:
        root.fields[name] = rng.random(dims)
    root.particles = ParticleSet(
        np.arange(nparticles), rng.random((nparticles, 3)),
        rng.random((nparticles, 3)), rng.random(nparticles),
    )
    return GridHierarchy(root)


def test_an_array_through_write_contig_costs_its_bytes_plus_one_page():
    data = np.random.default_rng(1).random(512 * 1024 + 77)  # 4 MiB, off-page

    def program(comm):
        comm.machine.fs.create("f")
        adio = ADIOFile(comm.machine.fs, "f", comm)
        adio.write_contig(12345, b"x")  # the file and its first page exist
        with Traced() as t:
            adio.write_contig(3 * _PAGE + 5, data)
        return t

    t = run_spmd(make_machine(1), program).results[0]
    pages = data.nbytes // _PAGE + 2
    assert t.held >= data.nbytes
    assert t.peak <= data.nbytes + _PAGE + pages * 160 + SLACK


def test_hierarchy_copy_allocates_the_payload_once():
    master = _hierarchy(nparticles=0)  # fields only: a zero-filled twin of
    payload = master.total_data_nbytes()  # even one array would show
    with Traced() as t:
        twin = master.copy()
    assert twin.root.equal(master.root)
    assert payload <= t.held <= t.peak <= payload + SLACK


def test_a_shell_is_free_and_a_read_into_it_holds_the_payload_once():
    master = _hierarchy()
    grid = master.root
    meta = HierarchyMeta.from_hierarchy(master)
    particle = grid.particles.mass.nbytes

    def program(comm):
        sd = SDFile.start(comm, "g", "w")
        write_grid_sd(sd, grid)
        sd.end()
        with Traced() as made:
            shell = meta.root.shell()
        with Traced() as read:
            sd = SDFile.start(comm, "g", "r")
            read_grid_sd(iter_grid_sd(sd), shell)
            sd.end()
        return shell, made, read

    shell, made, read = run_spmd(make_machine(1), program).results[0]
    assert shell.equal(grid)
    assert made.peak <= SLACK  # no zeros waiting to be replaced
    assert grid.data_nbytes <= read.held <= grid.data_nbytes + SLACK
    # One copy per byte: a field is read straight into the array the shell
    # keeps (no bytes object beside it: that was + 1 array).  A particle
    # array is read into a 1-D array and copied into its column of the
    # shell's (n, 3) / (n, 2) arrays before the next one is read: + 1
    # particle array in flight (restacking all ten at the end held + 8).
    assert read.peak <= grid.data_nbytes + particle + SLACK


def _owned_buffer(arr: np.ndarray) -> int:
    """Bytes of the buffer ``arr``'s memory belongs to: what it keeps alive."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes if arr.base is None else memoryview(arr.base).nbytes


def test_the_funnel_read_holds_one_array_in_flight_not_one_grid():
    # One big grid whose particles weigh as much as its fields, so a
    # grid-sized transient of either kind shows.
    master = _hierarchy(nparticles=32768)
    grid = master.root
    array = grid.fields["density"].nbytes
    machine = make_machine(2)

    def write(comm):
        state = RankState.from_hierarchy(master, comm.rank, comm.size)
        registry.create("hdf4").write_checkpoint(comm, state, "ckpt")

    def read(comm):
        state, _stats = registry.create("hdf4").read_initial(comm, "ckpt")
        return state.pieces[grid.id]

    run_spmd(machine, write)
    with Traced() as t:
        pieces = run_spmd(make_machine(2, fs=machine.fs), read).results
    part = BlockPartition.for_grid(grid.dims, 2)
    for rank, piece in enumerate(pieces):
        assert piece.equal(part.extract(grid, rank))
    result = sum(p.data_nbytes for p in pieces)
    # Processor 0 cuts each array into the two pieces as it reads it and
    # drops it; at the scatter it holds both pieces and the message copy of
    # rank 1's.  Reading the grid whole first held it beside its pieces.
    assert t.peak <= result + array + payload_nbytes(pieces[1]) + SLACK
    # Rank 0's piece owns its arrays: a slab of a field used to be a view
    # that kept the whole field, rank 1's half included, alive.
    assert t.held <= result + SLACK
    fields, parts = pieces[0].fields, pieces[0].particles
    arrays = [arr for _, arr in fields.items()] + [
        parts.ids, parts.positions, parts.velocities, parts.mass, parts.attributes,
    ]
    assert all(_owned_buffer(arr) == arr.nbytes for arr in arrays)


_BUILDERS = {
    "dump": lambda seed: build_workload(
        replace(scenario_registry.get("AMR16"), seed=seed)),
    "initial": lambda seed: build_initial_workload(
        replace(scenario_registry.get("AMR16"), seed=seed)),
    "scale": build_scale_workload,
}


# Arguments no other test passes, so nothing earlier in the process can
# have built (or cached) this hierarchy before the trace starts.
@pytest.mark.parametrize("kind, warm, cold", [
    ("dump", 9172, 9173), ("initial", 9172, 9173), ("scale", 5, 6),
])
def test_a_dropped_workload_leaves_nothing_resident(kind, warm, cold):
    build = _BUILDERS[kind]
    build(warm)  # first-call imports and caches land outside the trace
    with Traced() as t:
        payload = build(cold).total_data_nbytes()
    assert t.peak >= payload  # the build ran inside the trace
    assert t.held <= SLACK
