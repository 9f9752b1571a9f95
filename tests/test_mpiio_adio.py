"""``ADIOFile.open``: the one timed namespace request every layer above
(MPI-IO, HDF5, HDF4, the sidecar helpers) opens through -- and the one
collective open, ``File.open``, built on it."""

import pytest

from repro.hdf5 import H5File
from repro.mpi import run_spmd
from repro.mpiio import ADIOFile, File, Hints
from repro.pfs import FileNotFound, InjectedIOError, StripedServerFS
from repro.sim import RankFailedError
from repro.topology import Machine, Network

from .conftest import make_machine


def timed_machine(nprocs=1):
    """A machine whose namespace operations cost 1 ms of simulated time."""
    fs = StripedServerFS(
        "s", nservers=2, stripe_size=4096, metadata_time=1e-3,
        disk_bandwidth=1e8, seek_time=0.0,
    )
    return make_machine(nprocs, fs=fs)


def meta_events(fs):
    """Subscribe to ``fs``; returns the growing ``(kind, path, node, end)`` list."""
    events = []

    def observer(op, path, offset, nbytes, start, end, node, kind, attempt):
        if op == "meta":
            events.append((kind, path, node, end))

    fs.subscribe(observer)
    return events


def test_create_truncates_and_open_keeps():
    m = make_machine(1)

    def program(comm):
        ADIOFile.open(comm, "f", create=True).write_contig(0, b"payload")
        kept = ADIOFile.open(comm, "f").size()
        return kept, ADIOFile.open(comm, "f", create=True).size()

    assert run_spmd(m, program).results[0] == (7, 0)


def test_open_of_a_missing_path_fails_the_rank():
    m = make_machine(1)
    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, lambda comm: ADIOFile.open(comm, "nope"))
    assert isinstance(ei.value.__cause__, FileNotFound)
    assert m.fs.store.listdir() == []


def test_create_if_missing_creates_once_then_opens():
    """A missing path is created once (``create=True``); a plain open of
    it then books an open, never a second create."""
    m = make_machine(1)
    events = meta_events(m.fs)

    def program(comm):
        ADIOFile.open(comm, "f", create=True).write_contig(0, b"kept")
        return ADIOFile.open(comm, "f").size()

    assert run_spmd(m, program).results[0] == 4
    assert [(kind, path) for kind, path, _, _ in events] == [
        ("create", "f"), ("open", "f")]


def test_a_meta_fault_fires_for_the_opener_it_matches():
    m = make_machine(1)
    spec = m.fs.inject_fault("meta", "ckpt.manifest")

    def program(comm):
        ADIOFile.open(comm, "ckpt", create=True)  # no match: passes
        ADIOFile.open(comm, "ckpt.manifest", create=True)

    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, program)
    assert isinstance(ei.value.__cause__, InjectedIOError)
    assert spec.fired == 1
    assert m.fs.store.listdir() == ["ckpt"]


def test_the_clock_ends_at_the_requests_completion():
    m = timed_machine()
    events = meta_events(m.fs)

    def program(comm):
        comm.compute(0.5)
        ADIOFile.open(comm, "f", create=True)
        return comm.clock

    clock = run_spmd(m, program).results[0]
    assert clock == events[0][3] == pytest.approx(0.501)


def test_no_attached_file_system_is_a_named_error():
    m = Machine(
        name="bare", nprocs=1, procs_per_node=1,
        network=Network(1, latency=1e-6, bandwidth=1e9),
    )
    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, lambda comm: ADIOFile.open(comm, "f", create=True))
    assert "no file system attached" in str(ei.value.__cause__)


class TestCollectiveOpen:
    """``File.open`` is the one collective open; HDF5's mpio driver uses it."""

    @pytest.mark.parametrize("opener", [
        lambda comm, path, hints: File.open(comm, path, "w", hints=hints),
        lambda comm, path, hints: H5File.create(comm, path, hints=hints),
    ], ids=["mpiio", "hdf5-mpio"])
    def test_rank0_creates_and_the_rest_open_after_it(self, opener):
        m = timed_machine(3)
        events = meta_events(m.fs)
        run_spmd(m, lambda comm: opener(comm, "f", Hints(striping_unit=12345)))
        assert [(kind, node) for kind, _, node, _ in events][0] == ("create", 0)
        assert sorted(kind for kind, _, _, _ in events) == ["create", "open", "open"]
        created = events[0][3]
        assert all(end > created for _, _, _, end in events[1:])
        assert m.fs.layout_for("f").stripe_size == 12345

    def test_striping_hints_apply_to_a_create_only(self):
        m = timed_machine(2)

        def program(comm):
            File.open(comm, "old", "w").close()
            File.open(comm, "old", "r", hints=Hints(striping_unit=12345)).close()

        run_spmd(m, program)
        assert m.fs.layout_for("old").stripe_size == 4096
