"""Property-based round-trip tests for the parallel sample sort and the
particle redistribution paths (paper 3.2.1 / 3.3).

Seeded-random particle sets across P in {1, 2, 4, 8}:

* :func:`repro.enzo.sort.parallel_sort_by_id` must produce a permutation of
  the input whose concatenation in rank order is globally ID-sorted, with
  offsets equal to the exclusive scan of the counts -- and the *global*
  result must not depend on how the particles were initially placed on
  ranks;
* the MPI-IO read path's position-based redistribution
  (``iostack.transports.redistribute_particles``) must deliver every particle
  to exactly the rank whose sub-domain contains it, losing and duplicating
  nothing, with payload arrays still attached to the right IDs.
"""

import numpy as np
import pytest

from repro.amr.particles import ParticleSet
from repro.amr.partition import BlockPartition
from repro.bench import build_workload
from repro.enzo.meta import HierarchyMeta
from repro.enzo.sort import parallel_sort_by_id
from repro.iostack.transports import redistribute_particles
from repro.mpi import run_spmd

from .conftest import make_machine

PROC_COUNTS = [1, 2, 4, 8]


def random_particles(rng, n):
    """A ParticleSet whose payload is a function of the ID, so any
    ID/payload decoupling in transit is detectable."""
    ids = rng.permutation(n).astype(np.int64) * 3 + 1  # unique, non-contiguous
    positions = rng.random((n, 3))
    velocities = np.column_stack([ids * 0.5, ids * -1.0, ids * 2.0]).astype(
        np.float64
    )
    mass = ids.astype(np.float64) * 0.25
    attributes = np.column_stack([ids * 1.5, ids * -0.5]).astype(np.float64)
    return ParticleSet(ids, positions, velocities, mass, attributes)


def payload_consistent(ps):
    """The ID-derived payload relations of :func:`random_particles`."""
    f = ps.ids.astype(np.float64)
    return (
        np.array_equal(ps.velocities[:, 0], f * 0.5)
        and np.array_equal(ps.velocities[:, 1], f * -1.0)
        and np.array_equal(ps.mass, f * 0.25)
        and np.array_equal(ps.attributes[:, 1], f * -0.5)
    )


def scatter(rng, particles, nprocs):
    """A random placement: each particle to a uniformly random rank."""
    owner = rng.integers(0, nprocs, size=len(particles))
    return [particles.select(owner == r) for r in range(nprocs)]


def run_sample_sort(placement, nprocs):
    def program(comm):
        mine, offset, counts = parallel_sort_by_id(comm, placement[comm.rank])
        return mine, offset, counts

    res = run_spmd(make_machine(nprocs), program, nprocs=nprocs)
    return res.results


@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_sort_is_a_sorted_permutation(nprocs, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 300))
    particles = random_particles(rng, n)
    results = run_sample_sort(scatter(rng, particles, nprocs), nprocs)

    merged = ParticleSet.concat([mine for mine, _, _ in results])
    # Permutation equivalence: nothing lost, nothing duplicated.
    assert len(merged) == n
    assert merged.equal_as_sets(particles)
    # Globally ID-sorted across the rank concatenation.
    assert np.array_equal(merged.ids, np.sort(particles.ids))
    # Payload rows travelled with their IDs.
    assert payload_consistent(merged)
    # Offsets are the exclusive scan of the counts, identical on all ranks.
    counts0 = results[0][2]
    assert sum(counts0) == n
    for rank, (mine, offset, counts) in enumerate(results):
        assert counts == counts0
        assert len(mine) == counts0[rank]
        assert offset == sum(counts0[:rank])


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_sample_sort_result_is_placement_invariant(nprocs):
    rng = np.random.default_rng(7)
    particles = random_particles(rng, 181)
    runs = []
    for placement_seed in (10, 11):
        placement = scatter(
            np.random.default_rng(placement_seed), particles, nprocs
        )
        results = run_sample_sort(placement, nprocs)
        runs.append(ParticleSet.concat([mine for mine, _, _ in results]))
    # The *global* sorted sequence (IDs and payloads) is placement-stable.
    assert runs[0].equal(runs[1])


@pytest.mark.parametrize("nprocs", PROC_COUNTS)
@pytest.mark.parametrize("seed", [3, 4])
def test_redistribution_routes_every_particle_home(nprocs, seed):
    meta = HierarchyMeta.from_hierarchy(build_workload("AMR16"))
    root_dims = meta.root.dims
    rng = np.random.default_rng(seed)
    particles = random_particles(rng, 240)
    partition = BlockPartition.for_grid(root_dims, nprocs)
    placement = scatter(rng, particles, nprocs)

    def program(comm):
        return redistribute_particles(
            comm, placement[comm.rank], meta, partition
        )

    results = run_spmd(make_machine(nprocs), program, nprocs=nprocs).results

    merged = ParticleSet.concat(results)
    assert merged.equal_as_sets(particles)  # permutation equivalence
    assert payload_consistent(merged)
    root = meta.root.shell()
    for rank, mine in enumerate(results):
        # Stable ID ordering within each rank's chunk.
        assert np.array_equal(mine.ids, np.sort(mine.ids))
        if len(mine) and rank < partition.nprocs:
            cells = root.cell_of(mine.positions)
            assert np.all(partition.owner_of_cells(cells) == rank)
        else:
            assert len(mine) == 0 or rank < partition.nprocs


@pytest.mark.parametrize("nprocs", [2, 4])
def test_redistribution_then_sort_round_trip(nprocs):
    """Composing redistribution with the sample sort preserves the set:
    the write path (sort by ID) and read path (route by position) are
    inverse permutations of the same particles."""
    meta = HierarchyMeta.from_hierarchy(build_workload("AMR16"))
    rng = np.random.default_rng(9)
    particles = random_particles(rng, 160)
    partition = BlockPartition.for_grid(meta.root.dims, nprocs)
    placement = scatter(rng, particles, nprocs)

    def program(comm):
        routed = redistribute_particles(
            comm, placement[comm.rank], meta, partition
        )
        mine, offset, counts = parallel_sort_by_id(comm, routed)
        return mine

    results = run_spmd(make_machine(nprocs), program, nprocs=nprocs).results
    merged = ParticleSet.concat(results)
    assert np.array_equal(merged.ids, np.sort(particles.ids))
    assert merged.equal_as_sets(particles)
    assert payload_consistent(merged)
