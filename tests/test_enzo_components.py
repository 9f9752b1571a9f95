"""Tests for ENZO building blocks: metadata, layout, sort, state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import (
    BARYON_FIELDS,
    Grid,
    GridHierarchy,
    ParticleSet,
    make_initial_conditions,
)
from repro.amr.particles import PARTICLE_ARRAYS
from repro.enzo import (
    TOP,
    CheckpointLayout,
    HierarchyMeta,
    RankState,
    WorkloadModel,
    hierarchies_equivalent,
    make_owner_map,
    parallel_sort_by_id,
    table1,
)
from repro.mpi import run_spmd

from .conftest import make_machine


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions((16, 16, 16), seed=42, pre_refine=1)


class TestHierarchyMeta:
    def test_from_hierarchy(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        assert len(meta) == len(hierarchy)
        assert meta.root.dims == (16, 16, 16)
        assert meta.root.nparticles == len(hierarchy.root.particles)
        assert meta.subgrid_ids() == [g.id for g in hierarchy.subgrids()]

    def test_serialisation_roundtrip(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        again = HierarchyMeta.from_bytes(meta.to_bytes())
        assert meta == again

    def test_byte_accounting_matches_real_data(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        assert meta.total_data_nbytes() == hierarchy.total_data_nbytes()

    def test_root_required(self):
        with pytest.raises(ValueError):
            HierarchyMeta([], root_id=0)


class TestCheckpointLayout:
    def test_extents_are_disjoint_and_dense(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        layout = CheckpointLayout(meta)
        extents = sorted(
            (layout.extent(g, a, k) for (g, k, a) in layout.keys()),
            key=lambda e: e.offset,
        )
        cursor = 0
        for e in extents:
            assert e.offset == cursor  # dense: no holes, no overlap
            cursor = e.end
        assert cursor == layout.total_nbytes
        assert layout.total_nbytes == meta.total_data_nbytes()

    def test_canonical_order(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        layout = CheckpointLayout(meta)
        # Top fields first, in canonical order.
        prev_end = 0
        for name in BARYON_FIELDS:
            e = layout.extent(TOP, name)
            assert e.offset == prev_end
            prev_end = e.end
        # Then top particle arrays.
        for name in PARTICLE_ARRAYS:
            e = layout.extent(TOP, name, "particle")
            assert e.offset == prev_end
            prev_end = e.end

    def test_dtypes(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        layout = CheckpointLayout(meta)
        assert layout.extent(TOP, "particle_id", "particle").dtype == np.int64
        assert layout.extent(TOP, "mass", "particle").dtype == np.float64
        assert layout.extent(TOP, "density").dtype == np.float64


def random_particles(n, seed, id_lo=0, id_hi=10**6):
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(id_lo, id_hi), size=n, replace=False)
    return ParticleSet(
        ids=ids.astype(np.int64),
        positions=rng.random((n, 3)),
        velocities=rng.standard_normal((n, 3)),
        mass=rng.random(n),
        attributes=rng.random((n, 2)),
    )


class TestParallelSort:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
    def test_global_order_and_conservation(self, nprocs):
        per_rank = 40

        def program(comm):
            mine = random_particles(per_rank, seed=comm.rank)
            out, offset, counts = parallel_sort_by_id(comm, mine)
            return out, offset, counts

        res = run_spmd(make_machine(nprocs), program)
        chunks = [r[0] for r in res.results]
        offsets = [r[1] for r in res.results]
        counts = res.results[0][2]
        # Chunks concatenate to the globally sorted sequence.
        merged = ParticleSet.concat(chunks)
        everything = ParticleSet.concat(
            [random_particles(per_rank, seed=r) for r in range(nprocs)]
        )
        assert merged.equal(everything.sort_by_id())
        # Offsets are the exclusive scan of counts.
        assert offsets == [sum(counts[:r]) for r in range(nprocs)]
        assert sum(counts) == nprocs * per_rank

    def test_skewed_distribution(self):
        def program(comm):
            n = 100 if comm.rank == 0 else 2
            mine = random_particles(n, seed=comm.rank + 10)
            out, offset, counts = parallel_sort_by_id(comm, mine)
            assert len(out) == counts[comm.rank]
            # My chunk is internally sorted.
            assert (np.diff(out.ids) >= 0).all()
            return counts

        res = run_spmd(make_machine(4), program)
        assert sum(res.results[0]) == 106

    def test_empty_everywhere(self):
        def program(comm):
            out, offset, counts = parallel_sort_by_id(comm, ParticleSet())
            return len(out), offset, sum(counts)

        res = run_spmd(make_machine(3), program)
        assert all(r == (0, 0, 0) for r in res.results)


class TestRankState:
    def test_from_hierarchy_covers_everything(self, hierarchy):
        nprocs = 4
        states = [
            RankState.from_hierarchy(hierarchy, r, nprocs) for r in range(nprocs)
        ]
        # Top pieces tile the root grid cells.
        assert sum(s.top_piece.ncells for s in states) == hierarchy.root.ncells
        # Every subgrid owned exactly once.
        owned = sorted(g for s in states for g in s.subgrids)
        assert owned == [g.id for g in hierarchy.subgrids()]

    def test_collect_roundtrip(self, hierarchy):
        nprocs = 4
        states = [
            RankState.from_hierarchy(hierarchy, r, nprocs) for r in range(nprocs)
        ]
        rebuilt = RankState.collect(states)
        assert hierarchies_equivalent(rebuilt, hierarchy)

    def test_owner_map_policies(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        lpt = make_owner_map(meta, 4, "lpt")
        rr = make_owner_map(meta, 4, "round_robin")
        assert set(lpt) == set(rr) == set(meta.subgrid_ids())
        with pytest.raises(ValueError):
            make_owner_map(meta, 4, "nope")

    def test_owner_map_meta_matches_hierarchy(self, hierarchy):
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        assert make_owner_map(meta, 3, "lpt") == make_owner_map(
            hierarchy, 3, "lpt"
        )


class TestSizing:
    def test_table1_shape(self):
        rows = table1()
        assert [r["problem"] for r in rows] == ["AMR64", "AMR128", "AMR256"]
        # Volumes grow ~8x per problem-size step.
        for a, b in zip(rows, rows[1:]):
            assert 6 < b["read_mb"] / a["read_mb"] < 9
            assert 6 < b["write_mb"] / a["write_mb"] < 9
        # Writes (multiple dumps) exceed the single initial read.
        for r in rows:
            assert r["write_mb"] > r["read_mb"]

    def test_workload_model_consistency(self):
        m = WorkloadModel(root_dims=(64, 64, 64))
        assert m.write_bytes() == 3 * m.hierarchy_bytes()  # a dump per cycle
        assert m.level_cells(0) == 64**3
        assert m.nparticles == int(64**3 * 0.25)
