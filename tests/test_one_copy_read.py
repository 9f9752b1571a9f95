"""One copy per read byte: a read that ends in an array fills it from the
block store's pages, and the array it returns is the reader's own.

* ``StoredFile.readinto`` gives the bytes of ``StoredFile.read`` over holes,
  page seams and past EOF, and writes every byte of its destination;
* a read into a buffer is the same file-system request as a read into new
  ``bytes``: counters, completion time and published events;
* SDS, ``read_array``, ``File.read_at`` with an array and ``H5Dataset.read``
  return a writable array that shares no memory with the store, and
  writing into it leaves the file's bytes as they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import PARTICLE_ARRAYS
from repro.enzo import RankState
from repro.enzo.io_base import IOStats, StackContext
from repro.enzo.layout import TOP
from repro.hdf4 import SDFile
from repro.hdf5 import H5File, Hyperslab
from repro.iostack import registry
from repro.mpi import collectives as coll
from repro.mpi import run_spmd
from repro.mpi.datatypes import FLOAT64, Subarray
from repro.mpiio import ADIOFile, File, Hints
from repro.mpiio.two_phase import collective_read
from repro.pfs import StoredFile
from repro.pfs.blockstore import _PAGE
from repro.topology.presets import PRESETS

from .conftest import make_machine
from .test_copy_budget import _hierarchy

# Sparse files a few pages long: holes, part-written pages, page seams.
_writes = st.lists(
    st.tuples(st.integers(0, 4 * _PAGE), st.binary(min_size=1, max_size=_PAGE + 99)),
    max_size=6,
)
_ranges = st.tuples(st.integers(0, 6 * _PAGE), st.integers(0, 3 * _PAGE))


def _filled(writes) -> StoredFile:
    f = StoredFile("f")
    for offset, data in writes:
        f.write(offset, data)
    return f


@settings(max_examples=200, deadline=None)
@given(writes=_writes, span=_ranges)
def test_property_readinto_gives_the_bytes_of_read(writes, span):
    f = _filled(writes)
    offset, nbytes = span
    out = bytearray(b"\xa5" * nbytes)  # a byte left unwritten would show
    f.readinto(offset, memoryview(out))
    assert out == f.read(offset, nbytes)


@settings(max_examples=40, deadline=None)
@given(writes=_writes, span=_ranges, listed=st.booleans())
def test_property_a_read_into_a_buffer_is_the_same_request(writes, span, listed):
    offset, nbytes = span
    seen = []
    for into in (False, True):
        fs = PRESETS["chiba_city"](4).fs
        events = []
        for off, data in writes:
            fs.write("f", off, data)
        if not writes:
            fs.write("f", 0, b"x")
        fs.counters.reset()
        fs.subscribe(lambda *event, events=events: events.append(event))
        out = memoryview(bytearray(nbytes)) if into else None
        if listed:
            segments = [(offset, nbytes // 2), (offset + nbytes, nbytes - nbytes // 2)]
            data, done = fs.read_list("f", segments, ready_time=1.0, out=out)
        else:
            data, done = fs.read("f", offset, nbytes, ready_time=1.0, out=out)
        if into:
            assert data is out
        seen.append((bytes(data), done, vars(fs.counters), events))
    assert seen[0] == seen[1]


_READERS = {
    "read_contig": lambda comm, adio, out: adio.read_contig(0, 4, out=out),
    "read_list": lambda comm, adio, out: adio.read_list([(0, 1), (3, 3)], out=out),
    "read_at_all": lambda comm, adio, out: collective_read(
        comm, adio, [(0, 4)], Hints(), out
    ),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
@pytest.mark.parametrize("out", [
    bytearray(3), bytearray(5), b"abcd", np.empty((2, 4), np.uint8)[:, :2],
], ids=["short", "long", "read-only", "strided"])
def test_a_read_lands_only_in_one_writable_buffer_of_its_size(out, reader):
    def program(comm):
        adio = ADIOFile.open(comm, "f", create=True)
        adio.write_contig(0, b"abcdef")
        with pytest.raises(ValueError):
            _READERS[reader](comm, adio, out)
        return comm.machine.fs.counters.reads

    assert run_spmd(make_machine(1), program).results[0] == 0


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize("listed", [False, True])
def test_the_file_system_reads_only_into_a_view_of_the_request_size(size, listed):
    fs = PRESETS["chiba_city"](4).fs
    fs.write("f", 0, b"abcdef")
    fs.counters.reset()
    out = memoryview(bytearray(size))
    with pytest.raises(ValueError):
        if listed:
            fs.read_list("f", [(0, 1), (3, 3)], out=out)
        else:
            fs.read("f", 0, 4, out=out)
    assert fs.counters.reads == 0 and bytes(out) == bytes(size)


def test_a_refused_destination_leaves_the_collective_read_unstarted():
    # Rank 0's first call is refused; if it had joined the request exchange
    # first, its second call would meet rank 1's one call out of step.
    def program(comm):
        if comm.rank == 0:
            ADIOFile.open(comm, "f", create=True).write_contig(0, b"abcdefgh")
        coll.barrier(comm)
        adio = ADIOFile.open(comm, "f")
        segments = [(4 * comm.rank, 4)]
        if comm.rank == 0:
            with pytest.raises(ValueError):
                collective_read(comm, adio, segments, Hints(), bytearray(3))
        out = bytearray(4)
        collective_read(comm, adio, segments, Hints(), out)
        return bytes(out)

    assert run_spmd(make_machine(2), program).results == [b"abcd", b"efgh"]


def _pages(fs) -> list[np.ndarray]:
    return [
        np.frombuffer(page, dtype=np.uint8)
        for path in fs.store.listdir()
        for page in fs.store.open(path)._pages.values()
    ]


def _file_bytes(fs) -> dict[str, bytes]:
    return {path: fs.store.open(path).read(0, fs.store.open(path).size)
            for path in fs.store.listdir()}


def _assert_private(arr: np.ndarray, fs, expected: np.ndarray) -> None:
    """``arr`` is ``expected``, writable, and the reader's alone."""
    assert np.array_equal(arr, expected)
    assert arr.flags.writeable
    assert not any(np.shares_memory(arr, page) for page in _pages(fs))
    before = _file_bytes(fs)
    arr[...] = 7
    assert _file_bytes(fs) == before


@settings(max_examples=15, deadline=None)
@given(shape=st.tuples(st.integers(0, 40), st.integers(1, 300)), lead=st.integers(0, 3))
def test_property_an_sds_read_is_a_private_array(shape, lead):
    data = np.arange(int(np.prod(shape)), dtype=np.float64).reshape(shape)
    machine = make_machine(1)

    def program(comm):
        sd = SDFile.start(comm, "g", "w")
        for i in range(lead):  # moves the array across page seams
            sd.create(f"lead{i}", np.uint8, (_PAGE // 3,)).write(
                np.full(_PAGE // 3, i, np.uint8))
        sd.create("a", data.dtype, data.shape).write(data)
        sd.end()
        sd = SDFile.start(comm, "g", "r")
        got = sd.select("a").read()
        sd.end()
        return got

    got = run_spmd(machine, program).results[0]
    _assert_private(got, machine.fs, data)


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 40), cols=st.integers(2, 300), start=st.integers(0, 99),
       view=st.sampled_from(["contiguous", "sieved", "listio"]))
def test_property_read_at_fills_a_private_array(rows, cols, start, view):
    data = np.random.default_rng(start).random((rows, cols))
    machine = make_machine(1)
    hints = Hints(use_listio=view == "listio")
    # A strided view reads the right half of every row: many segments,
    # sieved into one extent or sent as one list-I/O request.
    half = (rows, cols // 2), (0, cols - cols // 2)
    expected = data if view == "contiguous" else data[:, cols - cols // 2:]

    def program(comm):
        fh = File.open(comm, "f", "w", hints=hints)
        fh.write_at(start, data)
        fh.close()
        fh = File.open(comm, "f", "r", hints=hints)
        if view != "contiguous":
            fh.set_view(start, FLOAT64, Subarray(data.shape, *half, FLOAT64))
        template = np.empty(expected.shape)
        got = fh.read_at(0 if view != "contiguous" else start, template)
        fh.close()
        assert got is template
        return got

    got = run_spmd(machine, program).results[0]
    _assert_private(got, machine.fs, expected)


@pytest.mark.parametrize("lo, hi", [(0, None), (5, 900), (1000, 1001), (7, 7)])
def test_read_array_returns_a_private_array(lo, hi):
    master = _hierarchy((8, 8, 8), nparticles=1024)
    strategy = registry.create("mpi-io")
    machine = make_machine(1)

    def write(comm):
        state = RankState.from_hierarchy(master, comm.rank, comm.size)
        strategy.write_checkpoint(comm, state, "ckpt")

    def read(comm):
        meta = strategy.read_meta_sidecar(comm, "ckpt")
        ctx = StackContext(strategy, comm, "ckpt", IOStats(), [])
        session = strategy.format.open_read(
            ctx, meta, strategy.layout_planner.plan(meta))
        got = {name: session.read_array(TOP, "particle", name, lo, hi)
               for name in PARTICLE_ARRAYS}
        session.close()
        return got

    run_spmd(machine, write)
    got = run_spmd(machine, read).results[0]
    for name, arr in got.items():
        whole = master.root.particles.array(name)
        _assert_private(arr, machine.fs, whole[lo:hi])


@pytest.mark.parametrize("collective", [True, False])
@pytest.mark.parametrize("selection", [None, ((2, 0, 1), (3, 4, 5))])
def test_an_h5_dataset_read_is_a_private_array(collective, selection):
    data = np.random.default_rng(5).random((6, 7, 8))
    machine = make_machine(2)

    def program(comm):
        f = H5File.create(comm, "h")
        dset = f.create_dataset("d", data.shape, data.dtype)
        if comm.rank == 0:
            dset.write(data, collective=False)
        dset.close()
        f.close()
        f = H5File.open(comm, "h")
        dset = f.open_dataset("d")
        sel = None if selection is None else Hyperslab(*selection)
        got = None
        if collective or comm.rank == 0:
            got = dset.read(sel, collective=collective)
        dset.close()
        f.close()
        return got

    got = run_spmd(machine, program).results[0]
    if selection is None:
        expected = data
    else:
        (s0, s1, s2), (n0, n1, n2) = selection
        expected = data[s0:s0 + n0, s1:s1 + n1, s2:s2 + n2]
    _assert_private(got, machine.fs, expected)
