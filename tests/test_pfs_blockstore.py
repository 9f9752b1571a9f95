"""Unit and property tests for the block store."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import BlockStore, FileExists, FileNotFound, StoredFile
from repro.pfs.blockstore import _PAGE as STORE_PAGE

from .conftest import Traced


class TestStoredFile:
    def test_write_then_read_roundtrip(self):
        f = StoredFile("a")
        f.write(0, b"hello world")
        assert f.read(0, 11) == b"hello world"
        assert f.size == 11

    def test_sparse_holes_read_as_zeros(self):
        f = StoredFile("a")
        f.write(10, b"xy")
        assert f.read(0, 12) == b"\0" * 10 + b"xy"
        assert f.size == 12

    def test_read_past_eof_zero_fills(self):
        f = StoredFile("a")
        f.write(0, b"ab")
        assert f.read(0, 5) == b"ab\0\0\0"

    def test_overwrite_in_place(self):
        f = StoredFile("a")
        f.write(0, b"aaaaaa")
        f.write(2, b"BB")
        assert f.read(0, 6) == b"aaBBaa"
        assert f.size == 6

    def test_truncate_shrinks_and_grows_logical_size(self):
        f = StoredFile("a")
        f.write(0, b"abcdef")
        f.truncate(3)
        assert f.size == 3
        assert f.read(0, 6) == b"abc\0\0\0"
        f.truncate(10)
        assert f.size == 10

    def test_memoryview_and_bytearray_inputs(self):
        f = StoredFile("a")
        f.write(0, bytearray(b"123"))
        f.write(3, memoryview(b"456"))
        assert f.read(0, 6) == b"123456"

    def test_negative_arguments_rejected(self):
        f = StoredFile("a")
        with pytest.raises(ValueError):
            f.write(-1, b"x")
        with pytest.raises(ValueError):
            f.read(-1, 4)
        with pytest.raises(ValueError):
            f.read(0, -4)
        with pytest.raises(ValueError):
            f.truncate(-1)


class TestBlockStore:
    def test_create_open_delete_cycle(self):
        bs = BlockStore()
        bs.create("f")
        assert bs.exists("f")
        bs.open("f").write(0, b"data")
        bs.delete("f")
        assert not bs.exists("f")

    def test_open_missing_raises(self):
        with pytest.raises(FileNotFound):
            BlockStore().open("nope")

    def test_open_with_create_flag(self):
        bs = BlockStore()
        f = bs.open("new", create=True)
        assert f.size == 0
        assert bs.exists("new")

    def test_exclusive_create_conflicts(self):
        bs = BlockStore()
        bs.create("f")
        with pytest.raises(FileExists):
            bs.create("f", exclusive=True)

    def test_create_truncates_existing(self):
        bs = BlockStore()
        bs.create("f").write(0, b"old")
        f = bs.create("f")
        assert f.size == 0

    def test_delete_missing_raises(self):
        with pytest.raises(FileNotFound):
            BlockStore().delete("nope")

    def test_listdir_sorted(self):
        bs = BlockStore()
        for name in ("c", "a", "b"):
            bs.create(name)
        assert bs.listdir() == ["a", "b", "c"]


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 500), st.binary(min_size=1, max_size=64)),
        min_size=1,
        max_size=20,
    )
)
def test_property_store_matches_reference_model(writes):
    """Random overlapping writes: the store equals a flat reference buffer."""
    f = StoredFile("p")
    ref = bytearray()
    for offset, data in writes:
        end = offset + len(data)
        if end > len(ref):
            ref.extend(b"\0" * (end - len(ref)))
        ref[offset:end] = data
        f.write(offset, data)
    assert f.size == len(ref)
    assert f.read(0, len(ref)) == bytes(ref)


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(0, 1000),
    size=st.integers(0, 200),
    data=st.binary(min_size=0, max_size=300),
)
def test_property_read_is_pure(offset, size, data):
    """Reads never mutate: two identical reads return identical bytes."""
    f = StoredFile("p")
    f.write(17, data)
    first = f.read(offset, size)
    second = f.read(offset, size)
    assert first == second
    assert len(first) == size


PAGE = 64


def _page_model_write(pages: dict[int, bytearray], offset: int, data: bytes):
    """Reference model: a dict of fixed-size zero-default pages."""
    for i, byte in enumerate(data):
        pos = offset + i
        page = pages.setdefault(pos // PAGE, bytearray(PAGE))
        page[pos % PAGE] = byte


def _page_model_read(pages: dict[int, bytearray], offset: int, nbytes: int):
    out = bytearray(nbytes)
    for i in range(nbytes):
        pos = offset + i
        page = pages.get(pos // PAGE)
        if page is not None:
            out[i] = page[pos % PAGE]
    return bytes(out)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("w"), st.integers(0, 5000),
                      st.binary(min_size=1, max_size=300)),
            st.tuples(st.just("r"), st.integers(0, 6000),
                      st.integers(0, 400)),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_property_sparse_file_matches_page_model(ops):
    """Interleaved sparse writes/reads agree with a dict-of-pages model.

    Far-apart offsets leave holes that the geometric-growth resize must
    zero-fill exactly once; every read (inside data, across holes, past
    EOF) must match the page model byte for byte.
    """
    f = StoredFile("p")
    pages: dict[int, bytearray] = {}
    size = 0
    for op in ops:
        if op[0] == "w":
            _, offset, data = op
            f.write(offset, data)
            _page_model_write(pages, offset, data)
            size = max(size, offset + len(data))
        else:
            _, offset, nbytes = op
            expected = _page_model_read(pages, offset, nbytes)
            # Reads past EOF return zeros in both models.
            assert f.read(offset, nbytes) == expected
        assert f.size == size
    # Full-file readback including every hole.
    assert f.read(0, size) == _page_model_read(pages, 0, size)


@settings(max_examples=40, deadline=None)
@given(
    first=st.integers(0, 100),
    jump=st.integers(1000, 100_000),
    data=st.binary(min_size=1, max_size=64),
)
def test_property_far_jump_growth_zero_fills_the_hole(first, jump, data):
    """A write far past EOF grows once and the whole gap reads as zeros."""
    f = StoredFile("p")
    f.write(first, b"x")
    f.write(first + jump, data)
    assert f.size == first + jump + len(data)
    gap = f.read(first + 1, jump - 1)
    assert gap == b"\0" * (jump - 1)
    assert f.read(first + jump, len(data)) == data


# -- the paged store: seams, truncation, memory ------------------------------

SEAM_OFFSETS = st.one_of(
    st.integers(0, 3 * STORE_PAGE),
    st.sampled_from([k * STORE_PAGE + d for k in (1, 2, 3) for d in (-1, 0, 1)]),
)
SEAM_SIZES = st.one_of(
    st.integers(0, 300),
    st.sampled_from([STORE_PAGE - 1, STORE_PAGE, STORE_PAGE + 1, 2 * STORE_PAGE + 7]),
)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("w"), SEAM_OFFSETS, SEAM_SIZES, st.integers(1, 255)),
            st.tuples(
                st.just("r"),
                st.lists(st.tuples(SEAM_OFFSETS, SEAM_SIZES), min_size=1, max_size=4),
            ),
            st.tuples(st.just("t"), SEAM_OFFSETS),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_page_seams_match_a_flat_buffer(ops):
    """Writes, reads and truncates at PAGE-1 / PAGE / PAGE+1 and over
    multi-page spans agree with one flat zero-extended buffer, and
    ``checksum`` of a run list is the CRC of its concatenated ``read``s --
    runs crossing seams, over holes, past EOF and of length zero."""
    f = StoredFile("p")
    ref = bytearray()
    for op in ops:
        if op[0] == "w":
            _, offset, n, fill = op
            data = bytes((fill + i) % 251 + 1 for i in range(min(n, 512)))
            data = (data * (n // len(data) + 1))[:n] if n else b""
            f.write(offset, data)
            end = offset + n
            if end > len(ref):
                ref.extend(bytes(end - len(ref)))
            ref[offset:end] = data
        elif op[0] == "t":
            size = op[1]
            f.truncate(size)
            # Shrinking discards; regrowing (by truncate or a later write
            # past the cut) must read zeros where the old bytes were.
            ref = ref[:size] + bytes(max(0, size - len(ref)))
        else:
            runs = op[1]
            reads = [bytes(ref[o:o + n]).ljust(n, b"\0") for o, n in runs]
            assert [f.read(o, n) for o, n in runs] == reads
            expected = b"".join(reads)
            assert f.checksum(runs) == zlib.crc32(expected)
            assert f.checksum(runs, 0xBEEF) == zlib.crc32(expected, 0xBEEF)
        assert f.size == len(ref)
    assert f.read(0, len(ref) + STORE_PAGE + 3) == bytes(ref) + bytes(STORE_PAGE + 3)
    assert f.checksum([(0, len(ref))]) == zlib.crc32(ref)


def test_truncate_then_regrow_reads_zeros_on_both_sides_of_a_seam():
    f = StoredFile("a")
    f.write(0, b"\xff" * (2 * STORE_PAGE + 10))
    f.truncate(STORE_PAGE - 2)
    f.write(2 * STORE_PAGE + 5, b"z")
    assert f.read(STORE_PAGE - 4, 4) == b"\xff\xff\0\0"
    assert f.read(STORE_PAGE - 2, STORE_PAGE + 7) == bytes(STORE_PAGE + 7)
    assert f.read(2 * STORE_PAGE, 6) == b"\0\0\0\0\0z"
    f.truncate(STORE_PAGE)  # a cut on the seam itself drops the whole page
    f.truncate(STORE_PAGE + 8)
    assert f.read(STORE_PAGE - 4, 12) == b"\xff\xff" + bytes(10)


#: Per-page bookkeeping (``bytearray`` header, dict slot) on top of its bytes.
PAGE_OVERHEAD = 160


def test_a_write_a_tebibyte_out_costs_one_page():
    """The flat store asked for a 1 TiB zero temporary here."""
    f = StoredFile("a")
    with Traced() as t:
        f.write(1 << 40, b"x")
    assert f.size == (1 << 40) + 1
    assert t.peak <= STORE_PAGE + 4096
    assert f.read((1 << 40) - 2, 4) == b"\0\0x\0"
    assert f.checksum([((1 << 40) - 2, 3)]) == zlib.crc32(b"\0\0x")


@pytest.mark.parametrize("size", [1, 100, 5000, STORE_PAGE - 1])
@pytest.mark.parametrize("piece", [1 << 30, 96])
def test_a_sub_page_file_holds_at_most_twice_its_size(size, piece):
    with Traced() as t:
        f = StoredFile("a")
        for offset in range(0, size, piece):
            f.write(offset, b"\x01" * min(piece, size - offset))
    assert f.size == size
    assert t.held <= 2 * size + 512  # 512: the StoredFile and its one-page dict


@pytest.mark.parametrize("piece", [14 * 1024, STORE_PAGE, 3 * STORE_PAGE + 17])
def test_a_file_holds_at_most_its_size_plus_one_page(piece):
    """Appends of any piece size, then a rewrite: S + one page, so the
    file-per-grid cells at P = 1024 cannot grow; nothing transient either
    (no regrow copy, no zero temporary)."""
    size = 10 * STORE_PAGE + 12345
    data = memoryview(b"\x07" * piece)  # slicing a view copies nothing
    with Traced() as t:
        f = StoredFile("a")
        for offset in range(0, size, piece):
            f.write(offset, data[:size - offset])
        f.write(STORE_PAGE // 2, data)
    assert f.size == size
    npages = size // STORE_PAGE + 1
    assert t.held <= t.peak <= size + STORE_PAGE + npages * PAGE_OVERHEAD + 1024


def test_holes_cost_nothing_and_deleting_a_file_frees_it():
    with Traced() as t:
        store = BlockStore()
        f = store.create("sparse")
        for k in range(8):
            f.write(k * 100 * STORE_PAGE, b"\x01" * 10)
    assert f.size == 700 * STORE_PAGE + 10
    assert t.held <= 8 * (20 + PAGE_OVERHEAD) + 2048
    store.create("sparse")  # truncate-open drops every page
    assert f.size == 0 and not f._pages
    assert f.read(0, 100 * STORE_PAGE + 10) == bytes(100 * STORE_PAGE + 10)
