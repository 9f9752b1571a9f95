"""Tests for AMR fields, particles, grids and the hierarchy."""

import numpy as np
import pytest

from repro.amr import (
    BARYON_FIELDS,
    FieldSet,
    Grid,
    GridHierarchy,
    ParticleSet,
)


class TestFieldSet:
    def test_canonical_fields_and_order(self):
        fs = FieldSet((4, 4, 4))
        assert tuple(fs) == BARYON_FIELDS
        assert fs["density"].shape == (4, 4, 4)
        assert fs.nbytes == len(BARYON_FIELDS) * 64 * 8

    def test_set_and_get(self):
        fs = FieldSet((2, 2, 2))
        fs["density"] = np.ones((2, 2, 2))
        assert fs["density"].sum() == 8

    def test_shape_and_name_validation(self):
        fs = FieldSet((2, 2, 2))
        with pytest.raises(ValueError):
            fs["density"] = np.ones((3, 3, 3))
        with pytest.raises(KeyError):
            fs["nope"] = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            FieldSet((0, 2, 2))

    def test_copy_is_deep(self):
        fs = FieldSet((2, 2, 2))
        fs["density"] = np.ones((2, 2, 2))
        cp = fs.copy()
        cp["density"][0, 0, 0] = 99
        assert fs["density"][0, 0, 0] == 1.0

    def test_equal(self):
        a, b = FieldSet((2, 2, 2)), FieldSet((2, 2, 2))
        assert a.equal(b)
        b["density"] = np.ones((2, 2, 2))
        assert not a.equal(b)


    def partial(self):
        """Two of eight fields assigned; nobody has read the other six."""
        fs = FieldSet((3, 2, 4))
        fs["total_energy"] = np.full((3, 2, 4), 2.0)
        fs["internal_energy"] = np.arange(24.0).reshape(3, 2, 4)
        return fs

    def test_an_untouched_field_reads_as_writable_zeros_and_stays_put(self):
        fs = self.partial()
        velocity = fs["velocity_x"]
        assert velocity.dtype == np.float64 and velocity.shape == (3, 2, 4)
        assert not velocity.any() and velocity.flags.writeable
        velocity[1, 1, 1] = 5.0
        assert fs["velocity_x"] is velocity  # allocated once, on first read
        with pytest.raises(KeyError):
            fs["nope"]
        assert "nope" not in fs and "velocity_z" in fs

    def test_nbytes_and_iteration_do_not_depend_on_what_was_assigned(self):
        fs = self.partial()
        assert fs.nbytes == FieldSet((3, 2, 4)).nbytes == 8 * 24 * 8
        assert tuple(fs) == BARYON_FIELDS
        items = list(fs.items())
        assert [name for name, _ in items] == list(BARYON_FIELDS)
        assert all(a.shape == (3, 2, 4) for _, a in items)
        assert items[1][1].sum() == 48.0 and not items[0][1].any()
        assert fs.nbytes == sum(a.nbytes for _, a in fs.items())

    def test_equal_and_allclose_treat_untouched_as_zeros(self):
        fs, explicit = self.partial(), self.partial()
        for name in BARYON_FIELDS:
            if name not in ("total_energy", "internal_energy"):
                explicit[name] = np.zeros((3, 2, 4))
        assert fs.equal(explicit) and explicit.equal(fs)
        assert fs.allclose(explicit) and explicit.allclose(fs, rtol=0, atol=0)
        explicit["temperature"][0, 0, 0] = 1e-12
        assert not fs.equal(explicit) and not explicit.equal(fs)
        assert fs.allclose(explicit, atol=1e-9)
        assert not fs.allclose(explicit, rtol=0, atol=0)

    def test_copy_of_a_partial_set_is_deep_and_still_partial(self):
        fs = self.partial()
        cp = fs.copy()
        assert cp.equal(fs) and cp.names == fs.names and cp.dims == fs.dims
        cp["total_energy"][0, 0, 0] = -1.0
        cp["density"][0, 0, 0] = -1.0  # untouched in both: no shared zeros
        assert fs["total_energy"][0, 0, 0] == 2.0
        assert fs["density"][0, 0, 0] == 0.0

    def test_pickle_of_a_partial_set_equals_an_eagerly_filled_one(self):
        import pickle

        fs, explicit = self.partial(), FieldSet((3, 2, 4))
        for name in BARYON_FIELDS:
            explicit[name] = fs[name].copy() if name.endswith("energy") \
                else np.zeros((3, 2, 4))
        fs = self.partial()  # the loop above read every field of the first
        assert pickle.dumps(fs, 5) == pickle.dumps(explicit, 5)
        back = pickle.loads(pickle.dumps(self.partial(), 5))
        assert back.equal(explicit) and tuple(back) == BARYON_FIELDS


class TestParticleSet:
    def make(self, n=10, seed=0):
        rng = np.random.default_rng(seed)
        return ParticleSet(
            ids=np.arange(n),
            positions=rng.random((n, 3)),
            velocities=rng.standard_normal((n, 3)),
            mass=rng.random(n),
            attributes=rng.random((n, 2)),
        )

    def test_empty(self):
        p = ParticleSet()
        assert len(p) == 0
        assert p.nbytes == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(ids=np.arange(3), positions=np.zeros((2, 3)))

    def test_named_array_access(self):
        p = self.make(5)
        np.testing.assert_array_equal(p.array("particle_id"), p.ids)
        np.testing.assert_array_equal(p.array("position_y"), p.positions[:, 1])
        np.testing.assert_array_equal(p.array("velocity_z"), p.velocities[:, 2])
        np.testing.assert_array_equal(p.array("mass"), p.mass)
        np.testing.assert_array_equal(p.array("attribute_1"), p.attributes[:, 1])
        with pytest.raises(KeyError):
            p.array("nope")

    def test_from_arrays_roundtrip(self):
        from repro.amr import PARTICLE_ARRAYS

        p = self.make(7)
        arrays = {name: p.array(name).copy() for name in PARTICLE_ARRAYS}
        p2 = ParticleSet.from_arrays(arrays)
        assert p.equal(p2)

    def test_from_arrays_empty(self):
        from repro.amr import PARTICLE_ARRAYS

        p = ParticleSet()
        arrays = {name: p.array(name).copy() for name in PARTICLE_ARRAYS}
        assert len(ParticleSet.from_arrays(arrays)) == 0

    def test_select_and_concat(self):
        p = self.make(10)
        a = p.select(p.ids < 5)
        b = p.select(p.ids >= 5)
        merged = ParticleSet.concat([a, b])
        assert merged.equal(p)

    def test_sort_by_id(self):
        p = self.make(10)
        shuffled = p.select(np.random.default_rng(1).permutation(10))
        assert shuffled.sort_by_id().equal(p)
        assert shuffled.equal_as_sets(p)
        assert not shuffled.equal(p) or (shuffled.ids == p.ids).all()

    def test_concat_empty_list(self):
        assert len(ParticleSet.concat([])) == 0
        assert len(ParticleSet.concat([ParticleSet(), ParticleSet()])) == 0


class TestGrid:
    def test_make_root(self):
        g = Grid.make_root((8, 8, 8))
        assert g.level == 0
        assert g.ncells == 512
        np.testing.assert_allclose(g.cell_width, 1 / 8)

    def test_contains_points(self):
        g = Grid(0, 1, (4, 4, 4), np.array([0.25] * 3), np.array([0.5] * 3))
        pts = np.array([[0.3, 0.3, 0.3], [0.6, 0.3, 0.3], [0.25, 0.25, 0.25]])
        np.testing.assert_array_equal(g.contains_points(pts), [True, False, True])

    def test_cell_of_clips(self):
        g = Grid.make_root((4, 4, 4))
        pts = np.array([[0.0, 0.5, 0.999], [1.0, 1.0, 1.0]])
        cells = g.cell_of(pts)
        np.testing.assert_array_equal(cells[0], [0, 2, 3])
        np.testing.assert_array_equal(cells[1], [3, 3, 3])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Grid(0, 0, (4, 4, 4), np.ones(3), np.zeros(3))
        with pytest.raises(ValueError):
            Grid(0, 0, (4, 4, 4), np.zeros(2), np.ones(2))

    def test_metadata(self):
        g = Grid.make_root((4, 4, 4))
        md = g.metadata()
        assert md["dims"] == (4, 4, 4)
        assert md["level"] == 0
        assert md["nparticles"] == 0

    def test_equal(self):
        a = Grid.make_root((4, 4, 4))
        b = Grid.make_root((4, 4, 4))
        assert a.equal(b)
        b.fields["density"] = np.ones((4, 4, 4))
        assert not a.equal(b)


class TestGridHierarchy:
    def make_child(self, h, parent, lo=0.0, hi=0.5, dims=(4, 4, 4)):
        return Grid(
            id=h.new_grid_id(),
            level=parent.level + 1,
            dims=dims,
            left_edge=np.full(3, lo),
            right_edge=np.full(3, hi),
            parent_id=parent.id,
        )

    def test_add_and_traverse(self):
        h = GridHierarchy(Grid.make_root((8, 8, 8)))
        c1 = h.add_grid(self.make_child(h, h.root))
        c2 = h.add_grid(self.make_child(h, h.root, 0.5, 1.0))
        gc = h.add_grid(self.make_child(h, c1, 0.0, 0.25))
        assert len(h) == 4
        assert h.max_level == 2
        assert [g.id for g in h.subgrids()] == [c1.id, c2.id, gc.id]
        assert h.children(h.root_id) == [c1, c2]
        assert len(h.level_grids(1)) == 2

    def test_validation(self):
        h = GridHierarchy(Grid.make_root((8, 8, 8)))
        bad_level = Grid(
            99, 2, (4, 4, 4), np.zeros(3), np.full(3, 0.5), parent_id=h.root_id
        )
        with pytest.raises(ValueError):
            h.add_grid(bad_level)
        outside = Grid(
            98, 1, (4, 4, 4), np.full(3, 0.5), np.full(3, 1.5), parent_id=h.root_id
        )
        with pytest.raises(ValueError):
            h.add_grid(outside)
        orphan = Grid(97, 1, (4, 4, 4), np.zeros(3), np.ones(3), parent_id=1234)
        with pytest.raises(ValueError):
            h.add_grid(orphan)
        with pytest.raises(ValueError):
            GridHierarchy(
                Grid(0, 1, (2, 2, 2), np.zeros(3), np.ones(3), parent_id=5)
            )

    def test_totals_and_describe(self):
        h = GridHierarchy(Grid.make_root((4, 4, 4)))
        assert h.total_cells() == 64
        assert "level 0" in h.describe()

    def test_equal(self):
        h1 = GridHierarchy(Grid.make_root((4, 4, 4)))
        h2 = GridHierarchy(Grid.make_root((4, 4, 4)))
        assert h1.equal(h2)
        h2.root.fields["density"] = np.ones((4, 4, 4))
        assert not h1.equal(h2)
