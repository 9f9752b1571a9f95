"""Unit and property tests for MPI derived datatypes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    BYTE,
    FLOAT64,
    INT32,
    Contiguous,
    Indexed,
    Subarray,
    Vector,
    from_numpy,
    merge_segments,
)


class TestNamed:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT32.size == 4
        assert FLOAT64.size == 8
        assert FLOAT64.extent == 8

    def test_segments(self):
        assert FLOAT64.segments() == [(0, 8)]
        assert FLOAT64.segments(base=16) == [(16, 8)]

    def test_from_numpy(self):
        assert from_numpy(np.float64) is FLOAT64
        assert from_numpy("int32") is INT32
        with pytest.raises(TypeError):
            from_numpy(np.complex128)

    def test_is_contiguous(self):
        assert FLOAT64.is_contiguous


class TestMergeSegments:
    def test_adjacent_merge(self):
        assert merge_segments([(0, 4), (4, 4)]) == [(0, 8)]

    def test_gap_preserved(self):
        assert merge_segments([(0, 4), (8, 4)]) == [(0, 4), (8, 4)]

    def test_overlap_merges(self):
        assert merge_segments([(0, 6), (4, 4)]) == [(0, 8)]

    def test_zero_length_dropped(self):
        assert merge_segments([(0, 0), (5, 3)]) == [(5, 3)]


class TestContiguous:
    def test_packs_elements(self):
        t = Contiguous(5, FLOAT64)
        assert t.size == 40
        assert t.extent == 40
        assert t.segments() == [(0, 40)]
        assert t.is_contiguous

    def test_nested(self):
        t = Contiguous(3, Contiguous(2, INT32))
        assert t.size == 24
        assert t.segments() == [(0, 24)]

    def test_zero_count(self):
        t = Contiguous(0, FLOAT64)
        assert t.size == 0
        assert t.segments() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Contiguous(-1, BYTE)


class TestVector:
    def test_strided_blocks(self):
        # 3 blocks of 2 doubles, stride 4 doubles.
        t = Vector(3, 2, 4, FLOAT64)
        assert t.size == 48
        assert t.extent == (2 * 4 + 2) * 8
        assert t.segments() == [(0, 16), (32, 16), (64, 16)]
        assert not t.is_contiguous

    def test_stride_equals_blocklength_is_contiguous(self):
        t = Vector(4, 3, 3, INT32)
        assert t.segments() == [(0, 48)]
        assert t.is_contiguous

    def test_zero_count(self):
        assert Vector(0, 2, 4, BYTE).segments() == []


class TestIndexed:
    def test_blocks_at_displacements(self):
        t = Indexed([2, 1], [0, 4], FLOAT64)
        assert t.size == 24
        assert t.extent == 40
        assert t.segments() == [(0, 16), (32, 8)]

    def test_unsorted_displacements_sorted_in_segments(self):
        t = Indexed([1, 1], [5, 0], INT32)
        assert t.segments() == [(0, 4), (20, 4)]

    def test_adjacent_blocks_merge(self):
        t = Indexed([2, 2], [0, 2], INT32)
        assert t.segments() == [(0, 16)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Indexed([1, 2], [0], BYTE)
        with pytest.raises(ValueError):
            Indexed([-1], [0], BYTE)


class TestSubarray:
    def test_2d_interior_block(self):
        # 4x6 global, 2x3 sub at (1, 2); rows are 3 contiguous doubles.
        t = Subarray((4, 6), (2, 3), (1, 2), FLOAT64)
        assert t.size == 48
        assert t.extent == 4 * 6 * 8
        row0 = (1 * 6 + 2) * 8
        row1 = (2 * 6 + 2) * 8
        assert t.segments() == [(row0, 24), (row1, 24)]

    def test_full_array_is_one_segment(self):
        t = Subarray((4, 6), (4, 6), (0, 0), FLOAT64)
        assert t.segments() == [(0, 4 * 6 * 8)]
        assert t.is_contiguous

    def test_full_rows_merge(self):
        # Selecting complete rows 1..3 is one contiguous run.
        t = Subarray((5, 4), (2, 4), (1, 0), INT32)
        assert t.segments() == [(16, 32)]

    def test_3d_block(self):
        t = Subarray((4, 4, 4), (2, 2, 2), (1, 1, 1), BYTE)
        segs = t.segments()
        assert sum(n for _, n in segs) == 8
        assert len(segs) == 4  # 2x2 rows of 2 bytes

    def test_1d(self):
        t = Subarray((100,), (10,), (90,), FLOAT64)
        assert t.segments() == [(720, 80)]

    def test_numpy_index(self):
        t = Subarray((4, 6), (2, 3), (1, 2), FLOAT64)
        assert t.numpy_index() == (slice(1, 3), slice(2, 5))

    def test_empty_subarray(self):
        t = Subarray((4, 4), (0, 4), (0, 0), BYTE)
        assert t.size == 0
        assert t.segments() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Subarray((4,), (5,), (0,), BYTE)  # too big
        with pytest.raises(ValueError):
            Subarray((4,), (2,), (3,), BYTE)  # overhangs
        with pytest.raises(ValueError):
            Subarray((4, 4), (2,), (0, 0), BYTE)  # rank mismatch
        with pytest.raises(ValueError):
            Subarray((), (), (), BYTE)  # zero rank


@st.composite
def subarray_specs(draw):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 8)) for _ in range(rank))
    subsizes, starts = [], []
    for n in shape:
        sub = draw(st.integers(0, n))
        start = draw(st.integers(0, n - sub))
        subsizes.append(sub)
        starts.append(start)
    return shape, tuple(subsizes), tuple(starts)


@settings(max_examples=100, deadline=None)
@given(spec=subarray_specs())
def test_property_subarray_segments_match_numpy_mask(spec):
    """Flattened segments select exactly the bytes numpy slicing selects."""
    shape, subsizes, starts = spec
    t = Subarray(shape, subsizes, starts, FLOAT64)
    mask = np.zeros(shape, dtype=bool)
    mask[t.numpy_index()] = True
    flat = np.repeat(mask.ravel(), FLOAT64.size)  # per-byte mask
    expect = np.flatnonzero(flat)
    got = np.concatenate(
        [np.arange(d, d + n) for d, n in t.segments()]
        or [np.array([], dtype=np.int64)]
    )
    np.testing.assert_array_equal(got, expect)
    assert t.size == int(mask.sum()) * 8


@settings(max_examples=100, deadline=None)
@given(
    count=st.integers(0, 10),
    blocklength=st.integers(0, 5),
    extra_stride=st.integers(0, 5),
)
def test_property_vector_size_and_coverage(count, blocklength, extra_stride):
    stride = blocklength + extra_stride
    t = Vector(count, blocklength, stride, INT32)
    segs = t.segments()
    assert sum(n for _, n in segs) == t.size == count * blocklength * 4
    # Segments are sorted and non-overlapping.
    for (d1, n1), (d2, _) in zip(segs, segs[1:]):
        assert d1 + n1 < d2 or d1 + n1 == d2  # merged if adjacent
        assert d1 + n1 <= d2


@settings(max_examples=100, deadline=None)
@given(
    blocks=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 30)), min_size=0, max_size=6
    )
)
def test_property_indexed_covers_exact_bytes(blocks):
    """Indexed segments cover exactly the union of requested element runs."""
    lens = [b for b, _ in blocks]
    disps = [d for _, d in blocks]
    t = Indexed(lens, disps, INT32)
    want = set()
    for blen, disp in zip(lens, disps):
        for e in range(disp, disp + blen):
            want.update(range(e * 4, e * 4 + 4))
    got = set()
    for d, n in t.segments():
        got.update(range(d, d + n))
    assert got == want


def _ref_subarray_segments(self, base=0):
    """``Subarray.segments`` before the closed form, verbatim: one run per
    row of the last axis, merged by ``merge_segments``."""
    if self.size == 0:
        return []
    ext = self.base.extent
    # Rows along the last axis are contiguous runs of subsizes[-1] elems.
    run_len = self.subsizes[-1] * self.base.size
    # Strides (in elements) of each axis in the global array.
    strides = np.empty(len(self.shape), dtype=np.int64)
    strides[-1] = 1
    for i in range(len(self.shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * self.shape[i + 1]
    outer = self.subsizes[:-1]
    first = sum(st * sk for st, sk in zip(self.starts, strides))
    if not outer or all(s == 1 for s in outer):
        starts_elems = [first]
    else:
        # Vectorised cartesian product of outer indices -> displacements.
        grids = np.meshgrid(
            *[np.arange(s, dtype=np.int64) for s in outer], indexing="ij"
        )
        disp = np.zeros(grids[0].shape, dtype=np.int64)
        for g, sk in zip(grids, strides[:-1]):
            disp += g * sk
        starts_elems = (disp.ravel() + first).tolist()
        starts_elems.sort()
    runs = ((base + e * ext, run_len) for e in starts_elems)
    return merge_segments(runs)


@st.composite
def subarray_cases(draw):
    rank = draw(st.integers(1, 4))
    shape = tuple(draw(st.integers(1, 12 if rank < 4 else 6)) for _ in range(rank))
    subsizes, starts = [], []
    for n in shape:
        sub = draw(st.sampled_from([0, 1, n, draw(st.integers(0, n))]))
        subsizes.append(sub)
        starts.append(draw(st.integers(0, n - sub)))
    # Vector(2, 1, 2, INT32) has holes (size 8 < extent 12): rows never abut.
    base_type = draw(st.sampled_from([BYTE, INT32, FLOAT64, Vector(2, 1, 2, INT32)]))
    return Subarray(shape, subsizes, starts, base_type), draw(st.integers(0, 1 << 20))


@settings(max_examples=400, deadline=None)
@given(case=subarray_cases())
def test_property_subarray_closed_form_matches_reference(case):
    """The closed form equals the per-row merge, as Python ints -- including
    the single-run views (every outer subsize 1, 1-D) that used to carry
    a numpy offset."""
    t, base = case
    got = t.segments(base)
    assert got == _ref_subarray_segments(t, base)
    assert all(type(x) is int for seg in got for x in seg)
