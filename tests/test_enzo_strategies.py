"""Integration tests: checkpoint write + restart round-trips for every
registered composition (the matrix is generated from the registry)."""

from functools import partial

import numpy as np
import pytest

from repro.amr import make_initial_conditions
from repro.enzo import (
    RankState,
    compare_checkpoints,
    hierarchies_equivalent,
)
from repro.iostack import registry
from repro.mpi import run_spmd

from .conftest import edge_case_hierarchy, make_machine, runnable_strategies

STRATEGIES = {
    name: partial(registry.create, name) for name in runnable_strategies()
}
SHARED_FILE = [n for n in STRATEGIES if registry.get(n).layout == "shared-file"]


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=7, pre_refine=1, particles_per_cell=0.5
    )


def dump_and_restart(hierarchy, strategy_cls, nprocs, restart_procs=None):
    """Write a checkpoint on ``nprocs`` ranks, read it on ``restart_procs``."""
    restart_procs = restart_procs or nprocs
    write_machine = make_machine(nprocs)

    def write_program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        strategy = strategy_cls()
        return strategy.write_checkpoint(comm, state, "ckpt")

    wres = run_spmd(write_machine, write_program)

    read_machine = make_machine(restart_procs, fs=write_machine.fs)

    def read_program(comm):
        strategy = strategy_cls()
        state, stats = strategy.read_checkpoint(comm, "ckpt")
        return state, stats

    rres = run_spmd(read_machine, read_program)
    states = [r[0] for r in rres.results]
    return wres, rres, RankState.collect(states)


@pytest.mark.parametrize("name", list(STRATEGIES))
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_checkpoint_roundtrip(hierarchy, name, nprocs):
    _, _, rebuilt = dump_and_restart(hierarchy, STRATEGIES[name], nprocs)
    assert hierarchies_equivalent(rebuilt, hierarchy)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_restart_at_different_proc_count(hierarchy, name):
    """Write with 4 ranks, restart with 2 and with 6."""
    for restart_procs in (2, 6):
        _, _, rebuilt = dump_and_restart(
            hierarchy, STRATEGIES[name], 4, restart_procs
        )
        assert hierarchies_equivalent(rebuilt, hierarchy)


def test_cross_strategy_checkpoints_agree(hierarchy):
    """A checkpoint written by any strategy restores the same hierarchy."""
    _, _, via_mpiio = dump_and_restart(hierarchy, STRATEGIES["mpi-io"], 4)
    _, _, via_hdf4 = dump_and_restart(hierarchy, STRATEGIES["hdf4"], 2)
    _, _, via_hdf5 = dump_and_restart(hierarchy, STRATEGIES["hdf5"], 3)
    assert hierarchies_equivalent(via_mpiio, via_hdf4)
    assert hierarchies_equivalent(via_mpiio, via_hdf5)


# -- restart at P' != P on the hierarchy with every empty case (ROADMAP D.3) --


@pytest.fixture(scope="module")
def edge_hierarchy():
    return edge_case_hierarchy()


@pytest.fixture(scope="module")
def edge_dumps(edge_hierarchy):
    """name -> the machine holding that composition's P=4 dump (made once)."""
    made = {}

    def dump(name):
        if name not in made:
            made[name] = m = make_machine(4)

            def program(comm):
                state = RankState.from_hierarchy(edge_hierarchy, comm.rank, comm.size)
                return STRATEGIES[name]().write_checkpoint(comm, state, "ckpt")

            run_spmd(m, program)
        return made[name]

    return dump


@pytest.mark.parametrize("restart_procs", [1, 3, 6])
@pytest.mark.parametrize("name", list(STRATEGIES))
def test_restart_matrix(edge_hierarchy, edge_dumps, name, restart_procs):
    """Written at P=4, read at P' in {1, 3, 6}: at P'=6 a rank owns no
    subgrid at all, and grid 2 has no particles for anybody."""
    machine = make_machine(restart_procs, fs=edge_dumps(name).fs)

    def program(comm):
        return STRATEGIES[name]().read_checkpoint(comm, "ckpt")[0]

    states = run_spmd(machine, program).results
    assert hierarchies_equivalent(RankState.collect(states), edge_hierarchy)


@pytest.mark.parametrize("name", SHARED_FILE)
def test_shared_file_dump_holds_what_the_hdf4_dump_holds(edge_dumps, name):
    report = compare_checkpoints(
        edge_dumps(name).fs, STRATEGIES[name](), "ckpt",
        edge_dumps("hdf4").fs, STRATEGIES["hdf4"](), "ckpt",
    )
    assert report.ok, report.summary()
    assert report.compared == 5 * (8 + 10)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_write_stats_structure(hierarchy, name):
    wres, rres, _ = dump_and_restart(hierarchy, STRATEGIES[name], 2)
    for stats in wres.results:
        assert stats.operation == "write"
        assert stats.elapsed > 0
        assert set(stats.phases) >= {"top_fields", "top_particles", "subgrids"} or (
            name == "hdf4"
        )
        assert stats.bytes_moved >= 0
    read_stats = [r[1] for r in rres.results]
    assert all(s.operation == "read" for s in read_stats)
    # Total bytes written across ranks equals the hierarchy data volume.
    total_written = sum(s.bytes_moved for s in wres.results)
    assert total_written == hierarchy.total_data_nbytes()


def test_hdf4_gathers_to_rank0(hierarchy):
    """The HDF4 baseline funnels the top grid through processor 0."""
    nprocs = 4
    machine = make_machine(nprocs)

    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("hdf4").write_checkpoint(comm, state, "ckpt")
        return None

    run_spmd(machine, program)
    # All messages funnelled into node 0's ingress during the gather.
    assert machine.network.ingress[0].requests > 0


def test_mpiio_uses_collective_io(hierarchy):
    """MPI-IO strategy produces far fewer, larger fs writes than naive."""
    nprocs = 4
    machine = make_machine(nprocs)

    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")
        return None

    run_spmd(machine, program)
    writes = machine.fs.counters.writes
    bytes_written = machine.fs.counters.bytes_written
    # Naively, each rank would write one request per subarray row: for this
    # 16^3 grid over a 2x2x1 processor grid that is an 8x16-double row =
    # 128 bytes.  Two-phase I/O + sieving must do far better on average.
    assert bytes_written / writes > 16 * 128


def test_checkpoint_files_differ_by_strategy(hierarchy):
    """HDF4 makes one file per grid; the others one shared file + sidecar."""
    _, _, _ = dump_and_restart(hierarchy, STRATEGIES["hdf4"], 2)

    machine = make_machine(2)

    def program(comm, cls):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        cls().write_checkpoint(comm, state, "ckpt")
        return None

    run_spmd(machine, program, args=(STRATEGIES["mpi-io"],))
    files = machine.fs.store.listdir()
    assert files == ["ckpt", "ckpt.hierarchy", "ckpt.manifest"]

    machine4 = make_machine(2)
    run_spmd(machine4, program, args=(STRATEGIES["hdf4"],))
    files4 = machine4.fs.store.listdir()
    assert "ckpt.grid0000" in files4
    # sidecar + manifest + top-grid file + one file per subgrid
    assert len(files4) == 3 + len(hierarchy.subgrids())


def test_deterministic_checkpoint_bytes(hierarchy):
    """Two identical MPI-IO runs produce byte-identical checkpoint files."""
    m1 = make_machine(4)
    m2 = make_machine(4)

    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")
        return comm.clock

    r1 = run_spmd(m1, program)
    r2 = run_spmd(m2, program)
    assert r1.results == r2.results  # identical virtual timings
    f1 = m1.fs.store.open("ckpt")
    f2 = m2.fs.store.open("ckpt")
    assert f1.size == f2.size
    assert f1.read(0, f1.size) == f2.read(0, f2.size)


class TestValidation:
    def test_cross_strategy_comparison_ok(self, hierarchy):
        from repro.enzo import compare_checkpoints

        m_a = make_machine(4)

        def wa(comm):
            st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
            registry.create("mpi-io").write_checkpoint(comm, st, "a")

        run_spmd(m_a, wa)
        m_b = make_machine(2)

        def wb(comm):
            st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
            registry.create("hdf4").write_checkpoint(comm, st, "b")

        run_spmd(m_b, wb)
        report = compare_checkpoints(
            m_a.fs, registry.create("mpi-io"), "a", m_b.fs, registry.create("hdf4"), "b"
        )
        assert report.ok, report.summary()
        assert report.compared > 0
        assert "bit-identical" in report.summary()

    def test_comparison_detects_corruption(self, hierarchy):
        from repro.enzo import compare_checkpoints

        m_a = make_machine(2)
        m_b = make_machine(2)
        for m, name in ((m_a, "a"), (m_b, "b")):
            def w(comm, base=name):
                st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
                registry.create("mpi-io").write_checkpoint(comm, st, base)

            run_spmd(m, w)
        # Flip one data byte in b's shared file (well past the header).
        f = m_b.fs.store.open("b")
        original = f.read(1000, 1)
        f.write(1000, bytes([original[0] ^ 0xFF]))
        report = compare_checkpoints(
            m_a.fs, registry.create("mpi-io"), "a",
            m_b.fs, registry.create("mpi-io"), "b",
        )
        assert not report.ok
        assert report.mismatched
        assert "FAIL" in report.summary()

    def test_read_checkpoint_arrays_keys(self, hierarchy):
        from repro.enzo import read_checkpoint_arrays
        from repro.enzo.layout import TOP

        m = make_machine(2)

        def w(comm):
            st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
            registry.create("mpi-io").write_checkpoint(comm, st, "c")

        run_spmd(m, w)
        arrays = read_checkpoint_arrays(m.fs, registry.create("mpi-io"), "c")
        assert (TOP, "field", "density") in arrays
        assert (TOP, "particle", "particle_id") in arrays
        n_arrays_per_grid = 8 + 10
        assert len(arrays) == len(hierarchy) * n_arrays_per_grid
