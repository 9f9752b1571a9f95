"""Unit and property tests for MPI derived datatypes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import BYTE, FLOAT64, Named, Subarray, merge_segments

INT32 = Named("INT32", np.int32)


class TestNamed:
    def test_sizes(self):
        assert BYTE.size == 1
        assert INT32.size == 4
        assert FLOAT64.size == 8
        assert FLOAT64.extent == 8

    def test_segments(self):
        assert FLOAT64.segments() == [(0, 8)]
        assert FLOAT64.segments(base=16) == [(16, 8)]


class TestMergeSegments:
    def test_adjacent_merge(self):
        assert merge_segments([(0, 4), (4, 4)]) == [(0, 8)]

    def test_gap_preserved(self):
        assert merge_segments([(0, 4), (8, 4)]) == [(0, 4), (8, 4)]

    def test_overlap_merges(self):
        assert merge_segments([(0, 6), (4, 4)]) == [(0, 8)]

    def test_zero_length_dropped(self):
        assert merge_segments([(0, 0), (5, 3)]) == [(5, 3)]


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
    mask[tuple(slice(a, a + n) for a, n in zip(starts, subsizes))] = True
    flat = np.repeat(mask.ravel(), FLOAT64.size)  # per-byte mask
    expect = np.flatnonzero(flat)
    got = np.concatenate(
        [np.arange(d, d + n) for d, n in t.segments()]
        or [np.array([], dtype=np.int64)]
    )
    np.testing.assert_array_equal(got, expect)
    assert t.size == int(mask.sum()) * 8


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
    # A two-of-three INT32 subarray has a hole (size 8 < extent 12): rows
    # never abut.
    holey = Subarray((3,), (2,), (0,), INT32)
    base_type = draw(st.sampled_from([BYTE, INT32, FLOAT64, holey]))
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
