"""Tests for the new-simulation (initial) read path of every registered
composition (the matrix is generated from the registry)."""

from functools import partial

import numpy as np
import pytest

from repro.amr import BlockPartition, Grid, make_initial_conditions
from repro.enzo import (
    RankState,
    hierarchies_equivalent,
)
from repro.enzo.state import PartitionedState
from repro.iostack import registry
from repro.mpi import run_spmd

from .conftest import edge_case_hierarchy, make_machine, runnable_strategies

STRATEGIES = {
    name: partial(registry.create, name) for name in runnable_strategies()
}


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=3, pre_refine=1, particles_per_cell=0.5
    )


def write_then_initial_read(hierarchy, cls, write_procs, read_procs):
    m = make_machine(write_procs)

    def wp(comm):
        st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        cls().write_checkpoint(comm, st, "ckpt")

    run_spmd(m, wp)
    m2 = make_machine(read_procs, fs=m.fs)

    def rp(comm):
        state, stats = cls().read_initial(comm, "ckpt")
        return state, stats

    res = run_spmd(m2, rp)
    return [r[0] for r in res.results], [r[1] for r in res.results]


class TestBlockPartitionForGrid:
    def test_large_grid_uses_all_ranks(self):
        part = BlockPartition.for_grid((16, 16, 16), 8)
        assert part.nprocs == 8
        assert part.pgrid == (2, 2, 2)

    def test_small_grid_clamps(self):
        part = BlockPartition.for_grid((1, 1, 4), 8)
        assert part.nprocs <= 4
        assert all(p <= d for p, d in zip(part.pgrid, (1, 1, 4)))

    def test_clamped_blocks_still_tile(self):
        part = BlockPartition.for_grid((3, 2, 5), 16)
        seen = np.zeros((3, 2, 5), dtype=int)
        for r in range(part.nprocs):
            sel = part.slices_of(r)
            seen[sel] += 1
        assert (seen == 1).all()

    def test_largest_axis_gets_largest_factor(self):
        part = BlockPartition.for_grid((100, 2, 2), 8)
        assert part.pgrid[0] == max(part.pgrid)


@pytest.mark.parametrize("name", list(STRATEGIES))
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_initial_read_roundtrip(hierarchy, name, nprocs):
    states, stats = write_then_initial_read(hierarchy, STRATEGIES[name], 2, nprocs)
    rebuilt = PartitionedState.collect(states)
    assert hierarchies_equivalent(rebuilt, hierarchy)
    assert all(s.operation == "read_initial" for s in stats)
    assert all(s.elapsed > 0 for s in stats)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_initial_read_partitions_every_grid(hierarchy, name):
    states, _ = write_then_initial_read(hierarchy, STRATEGIES[name], 2, 4)
    meta = states[0].meta
    for g in meta.grids():
        part = states[0].partitions[g.id]
        pieces = [states[r].pieces[g.id] for r in range(4)]
        active = [p for p in pieces if p is not None]
        assert len(active) == part.nprocs
        # Pieces tile the grid's cells and particles are conserved.
        assert sum(p.ncells for p in active) == g.ncells
        assert sum(len(p.particles) for p in active) == g.nparticles


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_initial_read_particles_live_in_their_piece(hierarchy, name):
    states, _ = write_then_initial_read(hierarchy, STRATEGIES[name], 2, 4)
    for s in states:
        for piece in s.pieces.values():
            if piece is None or len(piece.particles) == 0:
                continue
            assert piece.contains_points(piece.particles.positions).all()


@pytest.mark.parametrize("read_procs", [2, 8])
@pytest.mark.parametrize("name", list(STRATEGIES))
def test_initial_read_matrix(name, read_procs):
    """Written at P=4, distributed over P'' in {2, 8}: at P''=8 the
    (1, 1, 2) grid has two blocks, so six ranks pass ``read_block(None)``
    and read empty particle slices; grid 2 has no particles for anybody."""
    h = edge_case_hierarchy()
    states, _ = write_then_initial_read(h, STRATEGIES[name], 4, read_procs)
    assert states[0].partitions[3].nprocs == min(read_procs, 2)
    assert [s.pieces[3] is None for s in states] == [
        r >= 2 for r in range(read_procs)
    ]
    assert hierarchies_equivalent(PartitionedState.collect(states), h)


def test_initial_read_more_ranks_than_cells(hierarchy):
    """Grids smaller than the communicator leave trailing ranks empty."""
    # Build a tiny hierarchy whose subgrid is very small.
    h = make_initial_conditions((8, 8, 8), seed=5, pre_refine=1)
    states, _ = write_then_initial_read(h, STRATEGIES["mpi-io"], 2, 8)
    rebuilt = PartitionedState.collect(states)
    assert hierarchies_equivalent(rebuilt, h)


def test_initial_read_hdf4_funnels_through_rank0(hierarchy):
    """The original path reads every byte on processor 0."""
    m = make_machine(4)

    def wp(comm):
        st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("hdf4").write_checkpoint(comm, st, "ckpt")

    run_spmd(m, wp)

    def rp(comm):
        _state, stats = registry.create("hdf4").read_initial(comm, "ckpt")
        return stats.bytes_moved

    res = run_spmd(make_machine(4, fs=m.fs), rp)
    assert res.results[0] == hierarchy.total_data_nbytes()
    assert all(b == 0 for b in res.results[1:])


def test_initial_read_mpiio_spreads_bytes(hierarchy):
    m = make_machine(4)

    def wp(comm):
        st = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, st, "ckpt")

    run_spmd(m, wp)

    def rp(comm):
        _state, stats = registry.create("mpi-io").read_initial(comm, "ckpt")
        return stats.bytes_moved

    res = run_spmd(make_machine(4, fs=m.fs), rp)
    # Every rank reads a nontrivial share.
    assert all(b > 0 for b in res.results)
