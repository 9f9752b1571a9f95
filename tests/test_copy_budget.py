"""Copy budget of the bulk data path: one copy per byte per hop.

"No zero-fill twin", "no regrow copy" and "no resident master" are
assertions on traced memory (``conftest.Traced``): *held* is what a step
leaves allocated, *peak* the most it ever had.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.amr import BlockPartition, Grid, GridHierarchy, ParticleSet
from repro.bench import build_initial_workload, build_scale_workload, build_workload
from repro.enzo import RankState
from repro.enzo.meta import HierarchyMeta
from repro.hdf4 import SDFile
from repro.iostack.formats import iter_grid_sd, read_grid_sd, write_grid_sd
from repro.iostack import registry, transports
from repro.mpi import run_spmd
from repro.mpiio import ADIOFile
from repro.pfs import FileSystem
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
    particle = grid.particles.mass.nbytes  # one particle array (== array)
    # Processor 0 cuts each array into the two pieces as it reads it and
    # drops it, and hands both pieces over to the scatter: rank 1's message
    # is its piece, not a copy of it (that copy was + 2.37 MB here).  The
    # high point is split's particle staging, once the three positions are
    # in and every piece's particles are allocated: beside the result and
    # the array in flight (position_z), three particle arrays wait for
    # their owners (particle_id, position_x, position_y), and the owner of
    # each particle and the owned indices take one int64 per particle each;
    # the per-rank masks and index temporaries stay under one more array.
    # Measured: + 1.42 MB over result + array; + 2.16 MB with the message
    # copy, and more with the grid read whole beside its pieces.
    assert t.peak <= result + array + 6 * particle + SLACK
    # Rank 0's piece owns its arrays: a slab of a field used to be a view
    # that kept the whole field, rank 1's half included, alive.
    assert t.held <= result + SLACK
    fields, parts = pieces[0].fields, pieces[0].particles
    arrays = [arr for _, arr in fields.items()] + [
        parts.ids, parts.positions, parts.velocities, parts.mass, parts.attributes,
    ]
    assert all(_owned_buffer(arr) == arr.nbytes for arr in arrays)


def test_a_particle_block_read_holds_one_array_beside_the_block(monkeypatch):
    # Fields are a few KiB; each rank reads its 16 384 of the 32 768
    # particles block-wise before redistributing them by position.
    n = 32768
    master = _hierarchy(dims=(8, 8, 8), nparticles=n)
    grid = master.root
    machine = make_machine(2)

    def write(comm):
        state = RankState.from_hierarchy(master, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")

    def read(comm):
        state, _stats = registry.create("mpi-io").read_initial(comm, "ckpt")
        return state.pieces[grid.id]

    read_particles = transports._read_particles
    blocks = []

    def traced(ctx, *args, **kwargs):
        # Each rank's own read: the engine runs one rank at a time.
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parts = read_particles(ctx, *args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
        blocks.append((len(parts), held - before, peak - before))
        return parts

    run_spmd(machine, write)
    monkeypatch.setattr(transports, "_read_particles", traced)
    with Traced():
        pieces = run_spmd(make_machine(2, fs=machine.fs), read).results
    part = BlockPartition.for_grid(grid.dims, 2)
    for rank, piece in enumerate(pieces):
        assert piece.particles.equal_as_sets(part.extract(grid, rank).particles)
    array = n * 8  # one particle array of the whole grid
    assert [count for count, _, _ in blocks] == [n // 2, n // 2]
    for _, held, peak in blocks:
        # A rank keeps its block: ten arrays of half the particles, 5.0
        # arrays.  Each array is copied into its column as it is read, so
        # the peak is the block plus the half array in flight: 5.5.  A dict
        # of the ten read arrays restacked at the end held the dict (5.0)
        # and the (n, 3) / (n, 2) stacks (4.0) at once: 9.0.
        assert 5 * array <= held <= 5 * array + SLACK
        assert peak <= 5.5 * array + SLACK


def test_a_list_read_into_bytes_copies_each_byte_once():
    fs = FileSystem()
    fs.create("f")
    segment = 512 * 1024
    segments = [(k * 3 * segment + 123, segment) for k in range(4)]
    payload = np.random.default_rng(2).bytes(4 * segment)
    fs.write_list("f", segments, payload)
    with Traced() as t:
        data, _ = fs.read_list("f", segments)
    assert data == payload
    # One join over every segment's views of the stored pages: the result
    # and the list of views.  A bytes object per segment joined at the end
    # held the payload twice.
    assert t.peak <= len(payload) + _PAGE


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
