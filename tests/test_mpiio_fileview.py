"""File-view mapping tests, and individual-pointer I/O through a ``File``'s
view."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import payload_nbytes, run_spmd
from repro.mpi.datatypes import BYTE, FLOAT64, Named, Subarray, merge_segments
from repro.mpiio import File, FileView, map_stream
from repro.mpiio.two_phase import _piece_plan

from .conftest import make_machine

INT32 = Named("INT32", np.int32)
#: Column 0 of a 2x2 array of doubles: every other double, segments
#: [(0, 8), (16, 8)] in a 32-byte tile.
EVERY_OTHER = Subarray((2, 2), (2, 1), (0, 0), FLOAT64)


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
            FileView(etype=FLOAT64, filetype=Subarray((3,), (3,), (0,), BYTE))

    def test_negative_disp_rejected(self):
        with pytest.raises(ValueError):
            FileView(disp=-1)

    def test_zero_length_maps_to_nothing(self):
        v = FileView(filetype=EVERY_OTHER, etype=FLOAT64)
        assert v.map_stream(0, 0) == []


class TestStridedViews:
    def test_vector_view_tiles(self):
        # A tile of 2 blocks of 1 double, stride 2 doubles: 16 bytes in a
        # 24-byte extent.  No subarray ends a tile where the next begins,
        # so the raw segments go to map_stream directly.
        def tile(offset, nbytes):
            return map_stream([(0, 8), (16, 8)], 16, 24, 0, offset, nbytes)

        assert tile(0, 8) == [(0, 8)]
        assert tile(8, 8) == [(16, 8)]
        # Crossing into the second tile: tile 1 starts at file byte 24.
        assert tile(16, 8) == [(24, 8)]
        # Tile 0's trailing segment [16, 24) abuts tile 1's leading segment
        # [24, 32): they merge.
        assert tile(0, 32) == [(0, 8), (16, 16), (40, 8)]

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
        ft = Subarray((2, 3), (2, 2), (0, 0), FLOAT64)  # [0,16), [24,40) of 48
        v = FileView(etype=FLOAT64, filetype=ft)
        # Ask for stream bytes [8, 24): second half of block 0 + first half
        # of block 1.
        assert v.map_stream(8, 16) == [(8, 8), (24, 8)]


@st.composite
def view_cases(draw):
    count = draw(st.integers(1, 4))
    blocklength = draw(st.integers(1, 3))
    extra = draw(st.integers(0, 3))
    # count rows of blocklength ints, blocklength + extra ints apart.
    ft = Subarray((count, blocklength + extra), (count, blocklength),
                  (0, draw(st.integers(0, extra))), INT32)
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
def tiles(draw):
    """``(segments, size, extent, filetype)`` of one tile of ints.

    Strided and indexed tiles are raw segment lists (``filetype`` None):
    only they end a tile where the next begins, or overlap themselves.
    """
    kind = draw(st.sampled_from(["strided", "subarray", "indexed"]))
    if kind == "strided":  # count blocks of b ints, stride ints apart
        b = draw(st.integers(1, 4))
        count, stride = draw(st.integers(1, 5)), b + draw(st.integers(0, 4))
        segs = merge_segments((i * stride * 4, b * 4) for i in range(count))
        return segs, count * b * 4, ((count - 1) * stride + b) * 4, None
    if kind == "indexed":  # displacements may repeat: a self-overlapping tile
        blocks = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 12)),
                               min_size=1, max_size=4))
        segs = merge_segments(sorted((d * 4, b * 4) for b, d in blocks))
        return (segs, sum(b for b, _ in blocks) * 4,
                max(d + b for b, d in blocks) * 4, None)
    shape = tuple(draw(st.integers(1, 6)) for _ in range(draw(st.integers(1, 3))))
    sub = [draw(st.integers(1, n)) for n in shape]
    start = [draw(st.integers(0, n - k)) for n, k in zip(shape, sub)]
    ft = Subarray(shape, sub, start, INT32)
    return ft.segments(), ft.size, ft.extent, ft


@settings(max_examples=400, deadline=None)
@given(
    tile=tiles(),
    disp=st.integers(0, 1 << 16),
    offset=st.integers(0, 60),
    nbytes=st.integers(0, 160),
)
def test_property_view_mapping_matches_tile_walk(tile, disp, offset, nbytes):
    """The vectorised mapping equals the tile walk over any stream range
    (whole tiles, partial tiles, many tiles), as Python ints."""
    segs, size, extent, ft = tile
    args = (size, extent, disp, offset * 4, nbytes * 4)
    ref = _ref_map_stream(segs, *args)
    got = map_stream(segs, *args)
    assert got == ref
    assert all(type(x) is int for seg in got for x in seg)
    if ft is not None:
        v = FileView(disp=disp, etype=INT32, filetype=ft)
        got = v.map_stream(offset * 4, nbytes * 4)
        assert got == ref
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
        def program(comm):
            # View selects every other double.
            fh = File.open(comm, "f", "w")
            fh.set_view(0, FLOAT64, EVERY_OTHER)
            fh.write(np.arange(4.0))  # stream elements 0..3
            fh.close()
            raw = comm.machine.fs.store.open("f")
            return np.frombuffer(raw.read(0, raw.size), dtype=np.float64)

        got = run_spmd(make_machine(1), program).results[0]
        # File layout: elements at positions 0, 2, 4, 6 (tile extent = 4).
        assert got[0] == 0.0
        assert got[2] == 1.0
        assert got[4] == 2.0
        assert got[6] == 3.0


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
