"""HDF5 library tests: dataspaces, hyperslabs, parallel dataset I/O."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdf5 import Dataspace, H5File, Hyperslab
from repro.hdf5.file import H5Dataset
from repro.hdf5.format import ObjectHeader
from repro.mpi import run_spmd
from repro.mpi.datatypes import merge_segments

from .conftest import make_machine


class TestDataspace:
    def test_basic(self):
        s = Dataspace((4, 5))
        assert s.rank == 2
        assert s.select_all().selection_shape == (4, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Dataspace(())
        with pytest.raises(ValueError):
            Dataspace((-1,))


def dataset_runs(space, sel):
    """``sel``'s merged byte runs in a one-byte-per-element dataset at file
    offset 0, and the unmerged run count its packing charge counts."""
    charges = []
    f = SimpleNamespace(comm=SimpleNamespace(compute=charges.append),
                        costs=SimpleNamespace(pack_per_run=1.0))
    d = H5Dataset(f, ObjectHeader("d", np.uint8, space.shape, 0, 0), 0)
    return d._segments(sel), int(charges[0])


class TestHyperslab:
    def test_simple_block_runs(self):
        sel = Hyperslab(start=(1, 2), count=(2, 3))
        # stride == block == 1 makes the last axis dense: one run per row.
        segs, nruns = dataset_runs(Dataspace((4, 6)), sel)
        assert nruns == 2
        assert [n for _, n in segs] == [3, 3]
        assert sel.selection_shape == (2, 3)

    def test_dense_last_axis_merges_into_rows(self):
        sel = Hyperslab(start=(1, 2), count=(2, 3))
        segs, _ = dataset_runs(Dataspace((4, 6)), sel)
        assert segs == [(1 * 6 + 2, 3), (2 * 6 + 2, 3)]

    def test_strided_selection(self):
        sel = Hyperslab(start=(0, 0), count=(1, 3), stride=(1, 4), block=(1, 2))
        segs, nruns = dataset_runs(Dataspace((1, 10)), sel)
        assert segs == [(0, 2), (4, 2), (8, 2)] and nruns == 3
        assert sel.selection_shape == (1, 6)

    def test_3d_block(self):
        # Full rows of the last axis: four unmerged runs, adjacent in pairs.
        sel = Hyperslab(start=(1, 1, 0), count=(2, 2, 4))
        segs, nruns = dataset_runs(Dataspace((4, 4, 4)), sel)
        assert nruns == 4
        assert segs == [(16 + 4, 8), (32 + 4, 8)]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="exceeds dataspace in dim 1"):
            Hyperslab(start=(0, 2), count=(1, 3)).validate_within(
                Dataspace((4, 4)))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank 1 != dataspace rank 2"):
            Hyperslab(start=(0,), count=(1,)).validate_within(Dataspace((4, 4)))

    def test_overlapping_block_rejected(self):
        with pytest.raises(ValueError):
            Hyperslab(start=(0,), count=(2,), stride=(2,), block=(3,))

    def test_empty_selection(self):
        segs, nruns = dataset_runs(Dataspace((4,)),
                                   Hyperslab(start=(0,), count=(0,)))
        assert segs == [] and nruns == 0


@settings(max_examples=80, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
    data=st.data(),
)
def test_property_hyperslab_runs_match_numpy(shape, data):
    """A dataset's byte runs cover exactly the elements numpy fancy
    indexing selects, in order and once each."""
    space = Dataspace(shape)
    start, count, stride, block = [], [], [], []
    for n in shape:
        b = data.draw(st.integers(1, max(1, n)))
        sr = data.draw(st.integers(b, max(b, n)))
        max_c = (n - b) // sr + 1 if n >= b else 0
        c = data.draw(st.integers(0, max_c))
        st_max = n - ((c - 1) * sr + b) if c > 0 else n - 1
        s = data.draw(st.integers(0, max(0, st_max)))
        start.append(s)
        count.append(c)
        stride.append(sr)
        block.append(b)
    sel = Hyperslab(tuple(start), tuple(count), tuple(stride), tuple(block))
    segs, _ = dataset_runs(space, sel)
    got = [i for off, n in segs for i in range(off, off + n)]
    mask = np.zeros(shape, dtype=bool)
    idx0 = [
        [s + i * sr + j for i in range(c) for j in range(b)]
        for s, c, sr, b in zip(start, count, stride, block)
    ]
    for i in idx0[0]:
        for j in idx0[1]:
            mask[i, j] = True
    assert got == np.flatnonzero(mask.ravel()).tolist()


def _ref_indices(self, dim):
    """``Hyperslab._indices`` before the closed form, verbatim."""
    st, c, sr, b = (
        self.start[dim],
        self.count[dim],
        self.stride[dim],
        self.block[dim],
    )
    base = st + np.arange(c, dtype=np.int64) * sr
    return (base[:, None] + np.arange(b, dtype=np.int64)[None, :]).ravel()


def _ref_file_runs(self, space):
    """The unmerged element runs of a selection, as ``Hyperslab.file_runs``
    computed them before the closed form (``npoints == 0`` spelled out)."""
    self.validate_within(space)
    if 0 in self.selection_shape:
        return np.empty(0, dtype=np.int64), 0
    shape = space.shape
    strides = np.empty(len(shape), dtype=np.int64)
    strides[-1] = 1
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    # Along the last axis, each block of ``block[-1]`` elements is a run;
    # if stride[-1] == block[-1] the whole axis selection is dense and
    # count[-1] blocks merge into one run.
    last_dense = self.stride[-1] == self.block[-1] or self.count[-1] == 1
    if last_dense:
        run_len = self.count[-1] * self.block[-1] if self.stride[-1] == self.block[-1] else self.block[-1]
        last_starts = np.array([self.start[-1]], dtype=np.int64)
        if self.count[-1] > 1 and self.stride[-1] != self.block[-1]:
            last_starts = (
                self.start[-1]
                + np.arange(self.count[-1], dtype=np.int64) * self.stride[-1]
            )
    else:
        run_len = self.block[-1]
        last_starts = (
            self.start[-1]
            + np.arange(self.count[-1], dtype=np.int64) * self.stride[-1]
        )
    outer = [_ref_indices(self, d) for d in range(self.rank - 1)]
    if outer:
        grids = np.meshgrid(*outer, indexing="ij")
        base = np.zeros(grids[0].shape, dtype=np.int64)
        for g, sk in zip(grids, strides[:-1]):
            base += g * sk
        base = base.ravel()
    else:
        base = np.zeros(1, dtype=np.int64)
    starts = (base[:, None] + last_starts[None, :]).ravel()
    starts.sort()
    return starts, int(run_len)


def _ref_file_segments(sel, space, data_offset, itemsize):
    """``H5Dataset.file_segments`` before the closed form, verbatim but for
    the dataset's attributes, passed in."""
    starts, run_len = _ref_file_runs(sel, space)
    item = itemsize
    base = data_offset
    segs = [(base + int(s) * item, run_len * item) for s in starts]
    return merge_segments(segs)


@st.composite
def strided_hyperslabs(draw):
    """A dataspace of rank 1-3 and a hyperslab in it with random start,
    count, stride and block -- blocks may reach both ends of a row."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(draw(st.integers(1, 3))))
    start, count, stride, block = [], [], [], []
    for n in shape:
        b = draw(st.integers(1, n))
        sr = draw(st.integers(b, max(b, n)))
        c = draw(st.integers(0, (n - b) // sr + 1))
        start.append(draw(st.integers(0, n - ((c - 1) * sr + b) if c else 0)))
        count.append(c)
        stride.append(sr)
        block.append(b)
    return Dataspace(shape), Hyperslab(start, count, stride, block)


@settings(max_examples=400, deadline=None)
@given(
    case=strided_hyperslabs(),
    dtype=st.sampled_from([np.uint8, np.int32, np.float64]),
    data_offset=st.integers(0, 1 << 20),
)
def test_property_hyperslab_closed_form_matches_reference(case, dtype, data_offset):
    """A dataset's byte runs equal the per-row merge, as Python ints, and
    the packing charge still counts the unmerged rows."""
    space, sel = case
    charges = []
    f = SimpleNamespace(comm=SimpleNamespace(compute=charges.append),
                        costs=SimpleNamespace(pack_per_run=1.0))
    header = ObjectHeader("d", dtype, space.shape, data_offset, 0)
    d = H5Dataset(f, header, 0)
    item = np.dtype(dtype).itemsize
    got = d._segments(sel)
    assert got == _ref_file_segments(sel, space, data_offset, item)
    assert all(type(x) is int for seg in got for x in seg)
    assert d.file_segments(sel) is got  # the manifest reuses the write's runs
    ref_starts, _ = _ref_file_runs(sel, space)
    assert charges == [len(ref_starts) * 1.0]


class TestH5File:
    def test_serial_roundtrip(self):
        def program(comm):
            f = H5File.create(comm, "f")
            a = np.arange(60, dtype=np.float64).reshape(3, 4, 5)
            d = f.create_dataset("density", a.shape, a.dtype)
            d.write(a, collective=False)
            d.close()
            f.close()
            f = H5File.open(comm, "f")
            got = f.open_dataset("density").read(collective=False)
            f.close()
            np.testing.assert_array_equal(a, got)
            return True

        assert run_spmd(make_machine(1), program).results[0]

    @pytest.mark.parametrize("nprocs", [2, 4])
    def test_parallel_hyperslab_write_roundtrip(self, nprocs):
        shape = (8, 6, 5)

        def program(comm):
            full = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
            f = H5File.create(comm, "f")
            d = f.create_dataset("density", shape, np.float64)
            # (Block, 1, 1) slabs along x.
            per = shape[0] // comm.size
            lo = comm.rank * per
            n = per if comm.rank < comm.size - 1 else shape[0] - lo
            sel = Hyperslab(start=(lo, 0, 0), count=(n,) + shape[1:])
            d.write(np.ascontiguousarray(full[lo : lo + n]), sel)
            d.close()
            f.close()
            f = H5File.open(comm, "f")
            got = f.open_dataset("density").read(sel)
            f.close()
            np.testing.assert_array_equal(got, full[lo : lo + n])
            return True

        assert all(run_spmd(make_machine(nprocs), program).results)

    def test_multiple_datasets_and_order(self):
        def program(comm):
            f = H5File.create(comm, "f")
            for name, shape in [("a", (4,)), ("b", (2, 2)), ("c", (3,))]:
                d = f.create_dataset(name, shape, np.int32)
                d.write(np.zeros(shape, np.int32))
                d.close()
            names = f.datasets()
            f.close()
            f = H5File.open(comm, "f")
            names2 = f.datasets()
            assert "a" in f and "zz" not in f
            f.close()
            return names, names2

        res = run_spmd(make_machine(2), program)
        assert res.results[0] == (["a", "b", "c"], ["a", "b", "c"])

    def test_attributes_roundtrip_and_rank0_writes(self):
        m = make_machine(4)

        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (4,), np.float64)
            d.write(np.zeros(4))
            d.write_attr("units", "g/cm^3")
            d.write_attr("level", 3)
            d.close()
            f.close()
            f = H5File.open(comm, "f")
            attrs = f.open_dataset("x").attrs
            f.close()
            return attrs

        res = run_spmd(m, program)
        assert all(a == {"units": "g/cm^3", "level": 3} for a in res.results)

    def test_data_is_misaligned_by_metadata(self):
        """Paper overhead #2: data never starts on a large aligned boundary."""
        from repro.hdf5.format import HEADER_CAPACITY, SUPERBLOCK_SIZE

        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (1024,), np.float64)
            off = d.header.data_offset
            d.write(np.zeros(1024), collective=False)
            d.close()
            f.close()
            return off

        off = run_spmd(make_machine(1), program).results[0]
        assert off == SUPERBLOCK_SIZE + HEADER_CAPACITY
        assert off % 4096 != 0

    def test_create_close_synchronise(self):
        """Paper overhead #1: create/close are collective barriers."""
        m = make_machine(4, latency=1e-3)

        def program(comm):
            comm.compute(float(comm.rank))  # skewed arrival
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (4,), np.float64)
            t_after_create = comm.clock
            d.close()
            f.close()
            return t_after_create

        res = run_spmd(m, program)
        # All ranks left create at >= the slowest rank's arrival time.
        assert min(res.results) >= 3.0

    def test_buffer_validation(self):
        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (4, 4), np.float64)
            with pytest.raises(ValueError):
                d.write(np.zeros((3, 3)), collective=False)
            with pytest.raises(TypeError):
                d.write(np.zeros((4, 4), np.int32).view(np.int32), collective=False)
            f.close()
            return True

        assert run_spmd(make_machine(1), program).results[0]

    def test_duplicate_dataset_rejected(self):
        def program(comm):
            f = H5File.create(comm, "f")
            f.create_dataset("x", (1,), np.float64)
            with pytest.raises(ValueError):
                f.create_dataset("x", (1,), np.float64)
            f.close()
            return True

        assert run_spmd(make_machine(1), program).results[0]

    def test_missing_dataset_raises(self):
        def program(comm):
            f = H5File.create(comm, "f")
            f.close()
            f = H5File.open(comm, "f")
            with pytest.raises(KeyError):
                f.open_dataset("nope")
            f.close()
            return True

        assert run_spmd(make_machine(1), program).results[0]

    def test_hyperslab_packing_cost_charged(self):
        """Paper overhead #3: fine-grained selections cost CPU per run."""

        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (64, 64), np.float64)
            t0 = comm.clock
            # Column selection: 64 runs.
            d.write(
                np.zeros((64, 1)),
                Hyperslab(start=(0, 0), count=(64, 1)),
                collective=False,
            )
            t_col = comm.clock - t0
            t0 = comm.clock
            # Row selection: 1 run, same byte count.
            d.write(
                np.zeros((1, 64)),
                Hyperslab(start=(0, 0), count=(1, 64)),
                collective=False,
            )
            t_row = comm.clock - t0
            f.close()
            return t_col, t_row

        t_col, t_row = run_spmd(make_machine(1), program).results[0]
        assert t_col > t_row


def test_unsupported_driver_and_mode():
    """Every file opens through the mpio driver; only 'r' / 'w' exist."""

    def program(comm):
        with pytest.raises(ValueError):
            H5File.open(comm, "f", mode="a")
        return True

    assert run_spmd(make_machine(1), program).results[0]


class TestHyperslabStrideBlock:
    def test_strided_block_write_read(self):
        """Full stride/block hyperslab semantics through the data path."""
        from repro.hdf5 import H5File, Hyperslab

        def program(comm):
            f = H5File.create(comm, "f")
            d = f.create_dataset("x", (20,), np.float64)
            d.write(np.zeros(20), collective=False)
            sel = Hyperslab(start=(1,), count=(3,), stride=(6,), block=(2,))
            d.write(np.arange(6, dtype=np.float64), sel, collective=False)
            full = d.read(collective=False)
            f.close()
            return full

        full = run_spmd(make_machine(1), program).results[0]
        expect = np.zeros(20)
        expect[1:3] = [0, 1]
        expect[7:9] = [2, 3]
        expect[13:15] = [4, 5]
        np.testing.assert_array_equal(full, expect)
