"""File-view mapping tests, and individual-pointer I/O through a ``File``'s
view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import payload_nbytes, run_spmd
from repro.mpi.datatypes import (
    BYTE,
    FLOAT64,
    INT32,
    Contiguous,
    Indexed,
    Subarray,
    Vector,
)
from repro.mpiio import File, FileView, map_stream
from repro.mpiio.two_phase import _piece_plan

from .conftest import make_machine


class TestFileViewBasics:
    def test_default_view_is_identity(self):
        v = FileView()
        assert v.is_contiguous
        assert v.map_stream(0, 10) == [(0, 10)]
        assert v.map_stream(5, 3) == [(5, 3)]

    def test_displacement_shifts_everything(self):
        v = FileView(disp=100)
        assert v.map_stream(0, 10) == [(100, 10)]

    def test_etype_units(self):
        v = FileView(etype=FLOAT64)
        assert v.byte_offset(3) == 24

    def test_filetype_must_be_multiple_of_etype(self):
        with pytest.raises(ValueError):
            FileView(etype=FLOAT64, filetype=Contiguous(3, BYTE))

    def test_negative_disp_rejected(self):
        with pytest.raises(ValueError):
            FileView(disp=-1)

    def test_zero_length_maps_to_nothing(self):
        v = FileView(filetype=Vector(2, 1, 2, FLOAT64), etype=FLOAT64)
        assert v.map_stream(0, 0) == []


class TestStridedViews:
    def test_vector_view_tiles(self):
        # Filetype: 2 blocks of 1 double, stride 2 doubles -> selects every
        # other double; extent = 3 doubles (24 bytes), size = 16 bytes.
        ft = Vector(2, 1, 2, FLOAT64)
        v = FileView(etype=FLOAT64, filetype=ft)
        assert v.map_stream(0, 8) == [(0, 8)]
        assert v.map_stream(8, 8) == [(16, 8)]
        # Crossing into the second tile: tile 1 starts at file byte 24.
        assert v.map_stream(16, 8) == [(24, 8)]
        # Tile 0's trailing segment [16, 24) abuts tile 1's leading segment
        # [24, 32): they merge.
        assert v.map_stream(0, 32) == [(0, 8), (16, 16), (40, 8)]

    def test_subarray_view(self):
        # 4x4 global ints, my column block is columns 2..4.
        ft = Subarray((4, 4), (4, 2), (0, 2), INT32)
        v = FileView(etype=INT32, filetype=ft)
        segs = v.map_stream(0, ft.size)
        assert segs == [(8, 8), (24, 8), (40, 8), (56, 8)]

    def test_subarray_view_with_disp(self):
        ft = Subarray((4, 4), (2, 4), (2, 0), INT32)  # last two rows
        v = FileView(disp=1000, etype=INT32, filetype=ft)
        assert v.map_stream(0, 32) == [(1032, 32)]

    def test_partial_request_inside_tile(self):
        ft = Vector(2, 2, 4, FLOAT64)  # [0,16) and [32,48) per 48-byte tile
        v = FileView(etype=FLOAT64, filetype=ft)
        # Ask for stream bytes [8, 24): second half of block 0 + first half
        # of block 1.
        assert v.map_stream(8, 16) == [(8, 8), (32, 8)]


@st.composite
def view_cases(draw):
    count = draw(st.integers(1, 4))
    blocklength = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 3))
    ft = Vector(count, blocklength, blocklength + extra, INT32)
    disp = draw(st.integers(0, 64))
    offset = draw(st.integers(0, 40))
    nbytes = draw(st.integers(0, 200)) * 4
    return ft, disp, offset, nbytes


@settings(max_examples=120, deadline=None)
@given(case=view_cases())
def test_property_view_mapping_matches_reference(case):
    """map_stream agrees with a brute-force byte-by-byte reference."""
    ft, disp, offset_elems, nbytes = case
    v = FileView(disp=disp, etype=INT32, filetype=ft)
    stream_off = offset_elems * 4
    got = v.map_stream(stream_off, nbytes)
    # Reference: enumerate stream byte -> file byte via one-tile segments.
    segs = ft.segments()
    expect_bytes = []
    for sb in range(stream_off, stream_off + nbytes):
        tile, within = divmod(sb, ft.size)
        pos = 0
        for d, n in segs:
            if within < pos + n:
                expect_bytes.append(disp + tile * ft.extent + d + (within - pos))
                break
            pos += n
    flat = [b for off, n in got for b in range(off, off + n)]
    assert flat == expect_bytes
    # Segments are merged: no two adjacent.
    for (o1, n1), (o2, _) in zip(got, got[1:]):
        assert o1 + n1 < o2


@settings(max_examples=60, deadline=None)
@given(
    nbytes=st.integers(0, 64),
    offset=st.integers(0, 64),
    disp=st.integers(0, 16),
)
def test_property_contiguous_view_is_identity_plus_disp(nbytes, offset, disp):
    v = FileView(disp=disp)
    got = v.map_stream(offset, nbytes)
    if nbytes == 0:
        assert got == []
    else:
        assert got == [(disp + offset, nbytes)]


def _ref_map_stream(
    ft_segments, ft_size, ft_extent, disp, stream_offset, nbytes
):
    """``map_stream`` before vectorisation, verbatim: a Python tile walk."""
    if stream_offset < 0 or nbytes < 0:
        raise ValueError("negative stream range")
    if nbytes == 0:
        return []
    if ft_size == 0:
        raise ValueError("cannot map through a zero-size filetype")
    out = []
    lo, hi = stream_offset, stream_offset + nbytes
    tile = lo // ft_size
    while tile * ft_size < hi:
        tile_base_stream = tile * ft_size
        tile_base_file = disp + tile * ft_extent
        pos = tile_base_stream  # stream position walking this tile's segments
        for seg_disp, seg_len in ft_segments:
            seg_lo, seg_hi = pos, pos + seg_len
            a, b = max(seg_lo, lo), min(seg_hi, hi)
            if a < b:
                file_off = tile_base_file + seg_disp + (a - seg_lo)
                if out and out[-1][0] + out[-1][1] == file_off:
                    out[-1] = (out[-1][0], out[-1][1] + (b - a))
                else:
                    out.append((file_off, b - a))
            pos = seg_hi
            if pos >= hi:
                break
        tile += 1
    return out


@st.composite
def filetypes(draw):
    kind = draw(st.sampled_from(["vector", "subarray", "indexed"]))
    if kind == "vector":
        b = draw(st.integers(1, 4))
        return Vector(draw(st.integers(1, 5)), b, b + draw(st.integers(0, 4)), INT32)
    if kind == "indexed":  # displacements may repeat: a self-overlapping type
        blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 12)),
                               min_size=1, max_size=4))
        return Indexed([b for b, _ in blocks], [d for _, d in blocks], INT32)
    shape = tuple(draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3))))
    sub = [draw(st.integers(1, n)) for n in shape]
    start = [draw(st.integers(0, n - k)) for n, k in zip(shape, sub)]
    return Subarray(shape, sub, start, INT32)


@settings(max_examples=400, deadline=None)
@given(
    ft=filetypes(),
    disp=st.integers(0, 1 << 16),
    offset=st.integers(0, 60),
    nbytes=st.integers(0, 160),
)
def test_property_view_mapping_matches_tile_walk(ft, disp, offset, nbytes):
    """The vectorised mapping equals the tile walk over any stream range
    (whole tiles, partial tiles, many tiles), as Python ints."""
    args = (ft.size, ft.extent, disp, offset * 4, nbytes * 4)
    ref = _ref_map_stream(ft.segments(), *args)
    v = FileView(disp=disp, etype=INT32, filetype=ft)
    got = v.map_stream(offset * 4, nbytes * 4)
    assert got == ref
    assert map_stream(ft.segments(), *args) == ref
    assert all(type(x) is int for seg in got for x in seg)
    assert v.map_stream(offset * 4, nbytes * 4) is got  # mapped once


@pytest.mark.parametrize(
    "shape, sub, start",
    [((100,), (10,), (90,)), ((4, 6), (1, 3), (2, 1)), ((4, 4, 4), (1, 1, 4), (1, 2, 0))],
)
def test_single_row_view_puts_python_ints_on_the_wire(shape, sub, start):
    """A single-row subarray view maps to Python-int offsets, so the
    two-phase read request built from it pickles at the size of its int
    version (a numpy offset costs 100 more bytes per piece)."""
    ft = Subarray(shape, sub, start, FLOAT64)
    segs = FileView(disp=24, etype=FLOAT64, filetype=ft).map_stream(0, ft.size)
    assert all(type(x) is int for seg in segs for x in seg)
    lo, hi = segs[0][0], segs[-1][0] + segs[-1][1]
    plan = _piece_plan(segs, lo, hi - lo, [0], 1 << 20)
    request = [(off, ln) for off, ln, _ in plan[0][0][1]]
    as_int = [(int(off), int(ln)) for off, ln in request]
    assert payload_nbytes(request) == payload_nbytes(as_int)
    assert payload_nbytes((lo, hi)) == payload_nbytes((int(lo), int(hi)))


class TestViewNonContiguousPointerIO:
    def test_pointer_io_through_strided_view(self):
        from repro.mpi.datatypes import FLOAT64, Vector
        from repro.mpiio import File

        def program(comm):
            # View selects every other double.
            ft = Vector(2, 1, 2, FLOAT64)
            fh = File.open(comm, "f", "w")
            fh.set_view(0, FLOAT64, ft)
            fh.write(np.arange(4.0))  # stream elements 0..3
            fh.close()
            raw = comm.machine.fs.store.open("f")
            return np.frombuffer(raw.read(0, raw.size), dtype=np.float64)

        got = run_spmd(make_machine(1), program).results[0]
        # File layout: elements at positions 0, 2, 3, 5 (tile extent = 3).
        assert got[0] == 0.0
        assert got[2] == 1.0
        assert got[3] == 2.0
        assert got[5] == 3.0


class TestSharedFilePointer:
    """Pointer writes move whole etypes: a partial one is refused before
    any byte is issued."""

    def test_partial_etype_rejected(self):
        from repro.sim import RankFailedError

        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w")
            fh.set_view(0, FLOAT64)
            fh.write(b"123")  # 3 bytes is not a whole float64

        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, program)
        assert "partial etype transfer" in str(ei.value.__cause__)

    @pytest.mark.parametrize("op", ["write", "write_all"])
    def test_a_rejected_partial_etype_leaves_the_file_empty(self, op):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w")
            fh.set_view(0, FLOAT64)
            with pytest.raises(ValueError, match="partial etype transfer"):
                getattr(fh, op)(b"123")
            fh.close()
            return comm.machine.fs.file_size("f")

        assert run_spmd(m, program).results[0] == 0
