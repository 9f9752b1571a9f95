"""Two-phase collective I/O tests."""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_spmd
from repro.mpi.datatypes import FLOAT64, Subarray
from repro.mpiio import File, Hints
from repro.mpiio.two_phase import _piece_plan, file_domains
from repro.pfs import FileSystem

from .conftest import make_machine


class TestFileDomains:
    def test_even_partition(self):
        d = file_domains(0, 100, [0, 1, 2, 3], align=0)
        assert d == {0: (0, 25), 1: (25, 50), 2: (50, 75), 3: (75, 100)}

    def test_alignment_rounds_up(self):
        d = file_domains(0, 100, [0, 1], align=64)
        assert d == {0: (0, 64), 1: (64, 100)}

    def test_small_range_leaves_trailing_empty(self):
        d = file_domains(0, 10, [0, 1, 2, 3], align=0)
        assert d[0] == (0, 3)
        assert d[3][0] == d[3][1] or d[3][1] <= 10

    def test_empty_range(self):
        d = file_domains(5, 5, [0, 1], align=0)
        assert all(s == e for s, e in d.values())


def block_partition_1d(total, size, rank):
    """Contiguous 1-D block decomposition."""
    base, rem = divmod(total, size)
    lo = rank * base + min(rank, rem)
    n = base + (1 if rank < rem else 0)
    return lo, n


@pytest.mark.parametrize("nprocs", [1, 2, 4, 5])
def test_collective_write_then_independent_read(nprocs):
    total = 1000

    def program(comm):
        fh = File.open(comm, "data", "w")
        lo, n = block_partition_1d(total, comm.size, comm.rank)
        part = np.arange(lo, lo + n, dtype=np.float64)
        fh.write_at_all(lo * 8, part)
        fh.close()
        fh = File.open(comm, "data", "r")
        out = fh.read_at(0, np.empty(total, dtype=np.float64)) if comm.rank == 0 else None
        fh.close()
        return out

    res = run_spmd(make_machine(nprocs), program)
    np.testing.assert_array_equal(res.results[0], np.arange(total, dtype=np.float64))


@pytest.mark.parametrize("nprocs", [2, 4])
def test_collective_read_matches_written_data(nprocs):
    total = 64 * 9

    def program(comm):
        fs = comm.machine.fs
        if comm.rank == 0:
            fs.create("data")
            fs.write("data", 0, np.arange(total, dtype=np.float64).tobytes())
        fh = File.open(comm, "data", "r")
        lo, n = block_partition_1d(total, comm.size, comm.rank)
        out = fh.read_at_all(lo * 8, np.empty(n, dtype=np.float64))
        fh.close()
        return out

    res = run_spmd(make_machine(nprocs), program)
    got = np.concatenate(res.results)
    np.testing.assert_array_equal(got, np.arange(total, dtype=np.float64))


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_subarray_collective_write_3d(nprocs):
    """(Block, 1, 1) decomposition of a 3-D array through subarray views."""
    shape = (8, 6, 5)

    def program(comm):
        full = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        lo, n = block_partition_1d(shape[0], comm.size, comm.rank)
        ftype = Subarray(shape, (n,) + shape[1:], (lo, 0, 0), FLOAT64)
        fh = File.open(comm, "grid", "w")
        fh.set_view(0, FLOAT64, ftype)
        fh.write_all(np.ascontiguousarray(full[lo : lo + n]))
        fh.close()
        return None

    m = make_machine(nprocs)
    run_spmd(m, program)
    raw = m.fs.store.open("grid").read(0, int(np.prod(shape)) * 8)
    got = np.frombuffer(raw, dtype=np.float64).reshape(shape)
    np.testing.assert_array_equal(
        got, np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    )


@pytest.mark.parametrize("nprocs", [2, 4, 8])
def test_block_block_block_roundtrip(nprocs):
    """The paper's (Block, Block, Block) baryon-field pattern, write + read."""
    shape = (8, 8, 8)
    # Factor nprocs into a 3-D processor grid.
    grids = {1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2)}
    pgrid = grids[nprocs]

    def my_block(rank):
        coords = np.unravel_index(rank, pgrid)
        starts, sizes = [], []
        for d in range(3):
            lo, n = block_partition_1d(shape[d], pgrid[d], coords[d])
            starts.append(lo)
            sizes.append(n)
        return tuple(starts), tuple(sizes)

    def program(comm):
        full = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        starts, sizes = my_block(comm.rank)
        sel = tuple(slice(s, s + n) for s, n in zip(starts, sizes))
        ftype = Subarray(shape, sizes, starts, FLOAT64)
        fh = File.open(comm, "bbb", "w")
        fh.set_view(0, FLOAT64, ftype)
        fh.write_all(np.ascontiguousarray(full[sel]))
        fh.close()
        # Read it back collectively through the same views.
        fh = File.open(comm, "bbb", "r")
        fh.set_view(0, FLOAT64, ftype)
        got = fh.read_at_all(0, np.empty(sizes, dtype=np.float64))
        fh.close()
        np.testing.assert_array_equal(got, full[sel])
        return True

    assert all(run_spmd(make_machine(nprocs), program).results)


def test_collective_write_fewer_fs_requests_than_independent():
    """Two-phase turns strided per-rank access into few large requests."""
    nprocs = 4
    shape = (8, 8, 8)

    def program(comm, collective):
        full = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        # (1, Block, 1): each rank owns a y-slab -> highly strided in file.
        lo, n = block_partition_1d(shape[1], comm.size, comm.rank)
        ftype = Subarray(shape, (shape[0], n, shape[2]), (0, lo, 0), FLOAT64)
        fh = File.open(comm, "f", "w", hints=Hints(ds_write=False))
        fh.set_view(0, FLOAT64, ftype)
        data = np.ascontiguousarray(full[:, lo : lo + n, :])
        if collective:
            fh.write_all(data)
        else:
            fh.write(data)
        fh.close()
        return None

    m1 = make_machine(nprocs)
    run_spmd(m1, program, args=(True,))
    collective_writes = m1.fs.counters.writes
    m2 = make_machine(nprocs)
    run_spmd(m2, program, args=(False,))
    independent_writes = m2.fs.counters.writes
    assert collective_writes < independent_writes / 4
    # Both produced identical files.
    total = int(np.prod(shape)) * 8
    assert m1.fs.store.open("f").read(0, total) == m2.fs.store.open("f").read(0, total)


def test_multiple_rounds_small_cb_buffer():
    nprocs = 3
    total = 4096

    def program(comm):
        hints = Hints(cb_buffer_size=256)  # force many rounds
        fh = File.open(comm, "f", "w", hints=hints)
        lo, n = block_partition_1d(total, comm.size, comm.rank)
        fh.write_at_all(lo, np.full(n, comm.rank + 1, dtype=np.uint8))
        fh.close()
        return (lo, n)

    m = make_machine(nprocs)
    res = run_spmd(m, program)
    raw = np.frombuffer(m.fs.store.open("f").read(0, total), dtype=np.uint8)
    for rank, (lo, n) in enumerate(res.results):
        assert (raw[lo : lo + n] == rank + 1).all()


def test_ranks_with_no_data_participate():
    def program(comm):
        fh = File.open(comm, "f", "w")
        if comm.rank == 0:
            fh.write_at_all(0, np.arange(10, dtype=np.float64))
        else:
            fh.write_at_all(0, np.empty(0, dtype=np.float64))
        out = fh.read_at_all(0, 80 if comm.rank == 0 else 0)
        fh.close()
        return out

    res = run_spmd(make_machine(4), program)
    np.testing.assert_array_equal(
        np.frombuffer(res.results[0], dtype=np.float64), np.arange(10)
    )


def test_all_ranks_empty_write_is_noop():
    def program(comm):
        fh = File.open(comm, "f", "w")
        fh.write_at_all(0, b"")
        out = fh.read_at_all(0, 0)
        fh.close()
        return out

    res = run_spmd(make_machine(3), program)
    assert res.results == [b""] * 3


def test_cb_nodes_aggregator_selection():
    from repro.mpi.comm import Comm  # noqa: F401 - used implicitly
    from repro.mpiio.two_phase import aggregator_ranks

    m = make_machine(8, ppn=2)

    def program(comm):
        return (
            aggregator_ranks(comm, Hints(cb_nodes=None)),
            aggregator_ranks(comm, Hints(cb_nodes=0)),
            aggregator_ranks(comm, Hints(cb_nodes=2)),
        )

    res = run_spmd(m, program)
    one_per_node, every_rank, two_per_node = res.results[0]
    assert one_per_node == [0, 2, 4, 6]
    assert every_rank == list(range(8))
    assert two_per_node == list(range(8))


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 200), min_size=2, max_size=4),
    cb=st.sampled_from([64, 256, 4096]),
)
def test_property_collective_write_equals_concatenation(sizes, cb):
    """Arbitrary per-rank block sizes: file equals concatenated blocks."""
    nprocs = len(sizes)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)

    def program(comm):
        rng = np.random.default_rng(comm.rank)
        mine = rng.integers(0, 256, size=sizes[comm.rank], dtype=np.uint8)
        fh = File.open(comm, "f", "w", hints=Hints(cb_buffer_size=cb))
        fh.write_at_all(int(offsets[comm.rank]), mine)
        fh.close()
        return mine

    m = make_machine(nprocs)
    res = run_spmd(m, program)
    expect = np.concatenate([r for r in res.results]) if sum(sizes) else b""
    got = m.fs.store.open("f").read(0, int(offsets[-1]))
    assert got == (expect.tobytes() if sum(sizes) else b"")


class _ref_SegmentIndex:
    """``two_phase._SegmentIndex`` before the plan absorbed it, verbatim."""

    def __init__(self, segments: list[tuple[int, int]]):
        self.offs = [s[0] for s in segments]
        self.lens = [s[1] for s in segments]
        self.pos = [0] * (len(segments) + 1)  # cumulative data position
        for i, n in enumerate(self.lens):
            self.pos[i + 1] = self.pos[i] + n
        self.ends = [o + n for o, n in segments]

    @property
    def total(self) -> int:
        return self.pos[-1]

    def window(self, wlo: int, whi: int) -> list[tuple[int, int, int]]:
        """Pieces of my segments inside ``[wlo, whi)``.

        Returns ``(file_offset, length, data_position)`` triples in order.
        """
        out = []
        # First segment that could overlap: the one before the first with
        # offset >= wlo.
        i = bisect.bisect_left(self.offs, wlo)
        if i > 0 and self.ends[i - 1] > wlo:
            i -= 1
        while i < len(self.offs) and self.offs[i] < whi:
            a = max(self.offs[i], wlo)
            b = min(self.ends[i], whi)
            if a < b:
                out.append((a, b - a, self.pos[i] + (a - self.offs[i])))
            i += 1
        return out


def _ref_piece_plan(
    idx: _ref_SegmentIndex, lo: int, stride: int, aggs: list[int], cb: int
) -> dict[int, list[tuple[int, list[tuple[int, int, int]]]]]:
    """``two_phase._piece_plan`` before the window walk, verbatim."""
    plan: dict[int, dict[int, list[tuple[int, int, int]]]] = {}
    if idx.total == 0:
        return {}
    offs, lens, pos = idx.offs, idx.lens, idx.pos
    for i in range(len(offs)):
        a = offs[i]
        end = a + lens[i]
        p = pos[i]
        while a < end:
            di = (a - lo) // stride
            dstart = lo + di * stride
            r = (a - dstart) // cb
            cut = min(dstart + (r + 1) * cb, dstart + stride, end)
            plan.setdefault(r, {}).setdefault(di, []).append((a, cut - a, p))
            p += cut - a
            a = cut
    return {
        r: [(aggs[di], pieces) for di, pieces in sorted(by_dom.items())]
        for r, by_dom in plan.items()
    }


def _domain_stride(glo, ghi, naggs, align):
    stride = -(-(ghi - glo) // naggs)
    if align > 1:
        stride = -(-stride // align) * align
    return stride


@settings(max_examples=150, deadline=None)
@given(
    naggs=st.integers(1, 9),
    cb=st.integers(1, 64),
    align=st.sampled_from([0, 1, 8, 64]),
    glo=st.integers(0, 100),
    gaps=st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 40)),
        min_size=1,
        max_size=8,
    ),
)
def test_property_piece_plan_matches_window_probing(naggs, cb, align, glo, gaps):
    """The O(segments) piece plan equals probing every (agg, round) window.

    The plan replaced the per-window ``_SegmentIndex.window`` probes on the
    collective read/write hot path; this pins their equivalence over random
    segment lists, domain counts, alignments, and buffer sizes -- including
    a global extent wider than this rank's own segments.
    """

    # Random sorted disjoint segments for "my rank", starting at or after
    # the global lower bound (some other rank may own [glo, first)).
    segments = []
    pos = glo + gaps[0][0]
    for gap, length in gaps:
        pos += gap
        segments.append((pos, length))
        pos += length
    ghi = pos + 17  # another rank extends the global extent past mine
    idx = _ref_SegmentIndex(segments)
    aggs = list(range(naggs))
    domains = file_domains(glo, ghi, aggs, align)
    stride = _domain_stride(glo, ghi, naggs, align)
    max_domain = max(e - s for s, e in domains.values())
    rounds = max(1, -(-max_domain // cb))
    plan = _piece_plan(segments, glo, stride, aggs, cb)

    reference: dict[int, list[tuple[int, list]]] = {}
    for r in range(rounds):
        for a in aggs:
            dlo, dhi = domains[a]
            wlo, whi = dlo + r * cb, min(dhi, dlo + (r + 1) * cb)
            if wlo >= whi:
                continue
            pieces = idx.window(wlo, whi)
            if pieces:
                reference.setdefault(r, []).append((a, pieces))
    assert plan == reference
    total = sum(
        size for per_round in plan.values()
        for _, pieces in per_round
        for _, size, _ in pieces
    )
    assert total == sum(length for _, length in segments)


@settings(max_examples=300, deadline=None)
@given(
    aggs=st.lists(st.integers(0, 63), min_size=1, max_size=9, unique=True),
    cb=st.integers(1, 96),
    align=st.sampled_from([0, 1, 8, 64]),
    glo=st.integers(0, 1 << 20),
    runs=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 50)), min_size=0, max_size=12
    ),
    tail=st.integers(0, 100),
)
def test_property_piece_plan_matches_reference(aggs, cb, align, glo, runs, tail):
    """The window walk equals the reference plan over the segment index,
    zero-length segments included, and its payload fields are Python ints."""
    segments, pos = [], glo
    for gap, length in runs:
        pos += gap
        segments.append((pos, length))
        pos += length
    aggs = sorted(aggs)
    stride = _domain_stride(glo, pos + tail + 1, len(aggs), align)
    plan = _piece_plan(segments, glo, stride, aggs, cb)
    assert plan == _ref_piece_plan(_ref_SegmentIndex(segments), glo, stride, aggs, cb)
    for per_round in plan.values():
        for _, pieces in per_round:
            assert all(type(x) is int for piece in pieces for x in piece)
