"""Tests for ICs, refinement, partitioning, load balancing and the solver."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import (
    PARTICLE_ARRAYS,
    BlockPartition,
    Grid,
    GridHierarchy,
    ParticleSet,
    assign_grids_lpt,
    assign_grids_round_robin,
    block_bounds,
    cluster_flags,
    evolve_hierarchy,
    gaussian_random_field,
    make_initial_conditions,
    processor_grid,
    refine_hierarchy,
)


class TestInitialConditions:
    def test_grf_statistics(self):
        f = gaussian_random_field((16, 16, 16), seed=3)
        assert f.shape == (16, 16, 16)
        assert abs(f.mean()) < 0.05
        assert f.std() == pytest.approx(1.0, rel=1e-6)

    def test_grf_deterministic(self):
        a = gaussian_random_field((8, 8, 8), seed=7)
        b = gaussian_random_field((8, 8, 8), seed=7)
        np.testing.assert_array_equal(a, b)
        c = gaussian_random_field((8, 8, 8), seed=8)
        assert not np.array_equal(a, c)

    def test_make_initial_conditions(self):
        h = make_initial_conditions((16, 16, 16), seed=1, pre_refine=1)
        assert h.root.dims == (16, 16, 16)
        assert h.total_particles() > 0
        assert (h.root.fields["density"] > 0).all()
        # Pre-refinement produced at least one subgrid for a clustered field.
        assert len(h) > 1
        # Particle ids are unique across the hierarchy.
        ids = np.concatenate([g.particles.ids for g in h.grids()])
        assert len(np.unique(ids)) == len(ids)

    def test_particles_live_in_their_grids(self):
        h = make_initial_conditions((16, 16, 16), seed=2, pre_refine=1)
        for g in h.grids():
            if len(g.particles):
                assert g.contains_points(g.particles.positions).all()


class TestRefinement:
    def test_cluster_flags_empty(self):
        assert cluster_flags(np.zeros((4, 4, 4), dtype=bool)) == []

    def test_cluster_flags_single_blob(self):
        flags = np.zeros((8, 8, 8), dtype=bool)
        flags[2:4, 2:4, 2:4] = True
        boxes = cluster_flags(flags)
        assert boxes == [((2, 2, 2), (4, 4, 4))]

    def test_cluster_flags_two_blobs_split(self):
        flags = np.zeros((16, 8, 8), dtype=bool)
        flags[0:2, 0:2, 0:2] = True
        flags[14:16, 6:8, 6:8] = True
        boxes = cluster_flags(flags, min_efficiency=0.7)
        assert len(boxes) == 2
        covered = np.zeros_like(flags)
        for lo, hi in boxes:
            covered[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        assert covered[flags].all()  # all flagged cells covered

    def test_boxes_cover_all_flags_random(self):
        rng = np.random.default_rng(0)
        flags = rng.random((12, 12, 12)) > 0.9
        boxes = cluster_flags(flags)
        covered = np.zeros_like(flags)
        for lo, hi in boxes:
            covered[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
        assert covered[flags].all()

    def test_refine_hierarchy_creates_children(self):
        h = make_initial_conditions((16, 16, 16), seed=4, pre_refine=0)
        new = refine_hierarchy(h, overdensity_threshold=1.5)
        assert len(new) >= 1
        for child in new:
            assert child.level == 1
            assert child.parent_id == h.root_id
            # Refined dims are double the covered coarse region.
            assert all(d % 2 == 0 for d in child.dims)
            # Fields were prolonged: child density within parent's range.
            assert child.fields["density"].max() <= h.root.fields["density"].max() + 1e-9

    def test_refinement_moves_particles_down(self):
        h = make_initial_conditions((16, 16, 16), seed=5, pre_refine=0)
        before = h.total_particles()
        refine_hierarchy(h, overdensity_threshold=1.5)
        assert h.total_particles() == before  # conserved
        for g in h.subgrids():
            if len(g.particles):
                assert g.contains_points(g.particles.positions).all()

    def test_max_level_respected(self):
        h = make_initial_conditions((16, 16, 16), seed=6, pre_refine=0)
        for _ in range(4):
            refine_hierarchy(h, overdensity_threshold=1.2, max_level=2)
        assert h.max_level <= 2


class TestProcessorGrid:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1, 1, 1)), (2, (2, 1, 1)), (4, (2, 2, 1)), (8, (2, 2, 2)),
         (16, (4, 2, 2)), (64, (4, 4, 4)), (6, (3, 2, 1)), (12, (3, 2, 2))],
    )
    def test_near_cubic_factorisation(self, n, expected):
        assert processor_grid(n) == expected

    def test_product_is_nprocs(self):
        for n in range(1, 65):
            assert int(np.prod(processor_grid(n))) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            processor_grid(0)


class TestBlockBounds:
    def test_even_split(self):
        assert [block_bounds(8, 4, i) for i in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8)
        ]

    def test_remainder_goes_to_first(self):
        bounds = [block_bounds(10, 4, i) for i in range(4)]
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), parts=st.integers(1, 16))
    def test_property_blocks_tile_exactly(self, n, parts):
        prev = 0
        for i in range(parts):
            lo, hi = block_bounds(n, parts, i)
            assert lo == prev
            assert hi >= lo
            prev = hi
        assert prev == n


class TestBlockPartition:
    def make_grid(self, dims=(8, 8, 8), nparticles=200, seed=0):
        g = Grid.make_root(dims)
        rng = np.random.default_rng(seed)
        g.fields["density"] = rng.random(dims)
        g.particles = ParticleSet(
            ids=np.arange(nparticles),
            positions=rng.random((nparticles, 3)),
            velocities=rng.standard_normal((nparticles, 3)),
            mass=rng.random(nparticles),
            attributes=rng.random((nparticles, 2)),
        )
        return g

    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6, 8])
    def test_extract_reassemble_roundtrip(self, nprocs):
        g = self.make_grid()
        part = BlockPartition(g.dims, nprocs)
        pieces = [part.extract(g, r) for r in range(nprocs)]
        # Pieces tile the domain: cells and particles conserved.
        assert sum(p.ncells for p in pieces) == g.ncells
        assert sum(len(p.particles) for p in pieces) == len(g.particles)
        combined = part.reassemble(g, pieces)
        assert combined.fields.equal(g.fields)
        # Reassembly sorts particles by id = original order here.
        assert combined.particles.equal(g.particles.sort_by_id())

    @pytest.mark.parametrize("dims, nparticles, nprocs", [
        ((8, 8, 8), 200, 2), ((8, 8, 8), 200, 6), ((6, 5, 7), 37, 8),
        ((8, 8, 8), 0, 4), ((1, 1, 4), 3, 8),
    ])
    def test_split_array_by_array_is_extract_pickle_for_pickle(
        self, dims, nparticles, nprocs
    ):
        """The funnel's per-array cut scatters the messages the whole-grid
        extract did, byte for byte; and each piece owns its arrays."""
        g = self.make_grid(dims, nparticles)
        part = BlockPartition.for_grid(g.dims, nprocs)
        arrays = [("field", name, arr.copy()) for name, arr in g.fields.items()]
        arrays += [
            ("particle", name, g.particles.array(name).copy())
            for name in PARTICLE_ARRAYS
        ]
        shell = Grid(id=g.id, level=g.level, dims=g.dims,
                     left_edge=g.left_edge, right_edge=g.right_edge)
        pieces = part.split(shell, iter(arrays))
        assert len(pieces) == part.nprocs
        for rank, piece in enumerate(pieces):
            assert pickle.dumps(piece, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
                part.extract(g, rank), pickle.HIGHEST_PROTOCOL
            )
            for _, arr in piece.fields.items():
                assert arr.base is None
                assert not any(np.shares_memory(arr, a) for _, _, a in arrays)

    def test_piece_particles_match_piece_domain(self):
        g = self.make_grid()
        part = BlockPartition(g.dims, 8)
        for r in range(8):
            piece = part.extract(g, r)
            if len(piece.particles):
                assert piece.contains_points(piece.particles.positions).all()

    def test_block_of_covers_grid(self):
        part = BlockPartition((8, 10, 12), 6)
        seen = np.zeros((8, 10, 12), dtype=int)
        for r in range(6):
            starts, sizes = part.block_of(r)
            sel = tuple(slice(s, s + n) for s, n in zip(starts, sizes))
            seen[sel] += 1
        assert (seen == 1).all()

    def test_owner_of_cells_matches_blocks(self):
        part = BlockPartition((8, 8, 8), 4)
        for r in range(4):
            starts, sizes = part.block_of(r)
            corner = np.array([starts])
            assert part.owner_of_cells(corner)[0] == r

    def test_reassemble_wrong_count(self):
        g = self.make_grid()
        part = BlockPartition(g.dims, 4)
        with pytest.raises(ValueError):
            part.reassemble(g, [])


class TestLoadBalance:
    def make_grids(self, sizes):
        out = []
        for i, s in enumerate(sizes):
            g = Grid.make_root((s, 2, 2), grid_id=i)
            if i > 0:
                g.parent_id = 0
                g.level = 1
            out.append(g)
        return out

    def test_lpt_balances_better_than_round_robin(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(2, 40, size=30).tolist()
        grids = self.make_grids(sizes)
        lpt = assign_grids_lpt(grids, 4)
        rr = assign_grids_round_robin(grids, 4)

        def imbalance(assignment):  # max/mean per-rank byte load
            loads = [0] * 4
            for g in grids:
                loads[assignment[g.id]] += g.data_nbytes
            return max(loads) / (sum(loads) / 4)

        assert imbalance(lpt) <= imbalance(rr)

    def test_round_robin_cycle(self):
        grids = self.make_grids([4, 4, 4, 4, 4])
        rr = assign_grids_round_robin(grids, 2)
        assert [rr[g.id] for g in grids] == [0, 1, 0, 1, 0]

    def test_all_assigned(self):
        grids = self.make_grids([3, 5, 7])
        for fn in (assign_grids_lpt, assign_grids_round_robin):
            a = fn(grids, 8)
            assert set(a) == {g.id for g in grids}
            assert all(0 <= r < 8 for r in a.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            assign_grids_lpt([], 0)
        with pytest.raises(ValueError):
            assign_grids_round_robin([], 0)


class TestSolver:
    def test_evolution_changes_data_and_conserves_particles(self):
        h = make_initial_conditions((16, 16, 16), seed=9, pre_refine=1)
        before_density = h.root.fields["density"].copy()
        nparticles = h.total_particles()
        evolve_hierarchy(h)
        assert not np.array_equal(before_density, h.root.fields["density"])
        assert h.total_particles() == nparticles
        assert (h.root.fields["density"] > 0).all()

    def test_particles_stay_in_domain(self):
        h = make_initial_conditions((16, 16, 16), seed=10, pre_refine=0)
        for _ in range(10):
            evolve_hierarchy(h)
        pos = h.root.particles.positions
        assert (pos >= 0).all() and (pos < 1).all()

    def test_particles_rehomed_to_finest_grid(self):
        h = make_initial_conditions((16, 16, 16), seed=11, pre_refine=1)
        evolve_hierarchy(h)
        for g in h.grids():
            if len(g.particles) == 0:
                continue
            assert g.contains_points(g.particles.positions).all()
            # No particle sits in a descendant of its grid.
            for child in h.children(g.id):
                assert not child.contains_points(g.particles.positions).any()

    def test_evolution_deterministic(self):
        h1 = make_initial_conditions((16, 16, 16), seed=12, pre_refine=1)
        h2 = make_initial_conditions((16, 16, 16), seed=12, pre_refine=1)
        for _ in range(3):
            evolve_hierarchy(h1)
            evolve_hierarchy(h2)
        assert h1.equal(h2)
