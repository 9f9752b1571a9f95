"""Tests for PVFS-style list I/O (batched non-contiguous access)."""

import numpy as np
import pytest

from repro.mpi import run_spmd
from repro.mpi.datatypes import FLOAT64, Subarray
from repro.mpiio import File, Hints
from repro.pfs import FileSystem, StripedServerFS

from .conftest import make_machine


def make_striped(**kw):
    defaults = dict(
        nservers=4,
        stripe_size=100,
        disk_bandwidth=1000.0,
        seek_time=0.0,
        request_cpu_time=0.0,
    )
    defaults.update(kw)
    return StripedServerFS("lfs", **defaults)


class TestFileSystemListIO:
    def test_write_read_roundtrip(self):
        fs = make_striped()
        fs.create("f")
        segs = [(10, 5), (200, 7), (512, 3)]
        payload = bytes(range(15))
        fs.write_list("f", segs, payload)
        data, _ = fs.read_list("f", segs)
        assert data == payload
        # And the pieces landed at the right offsets.
        assert fs.read("f", 200, 7)[0] == payload[5:12]

    def test_base_filesystem_list_io(self):
        fs = FileSystem()
        fs.create("f")
        fs.write_list("f", [(0, 3), (10, 3)], b"abcdef")
        data, _ = fs.read_list("f", [(0, 3), (10, 3)])
        assert data == b"abcdef"

    def test_length_validation(self):
        fs = make_striped()
        fs.create("f")
        with pytest.raises(ValueError):
            fs.write_list("f", [(0, 10)], b"short")

    def test_one_request_counted(self):
        fs = make_striped()
        fs.create("f")
        fs.write_list("f", [(0, 5), (300, 5), (600, 5)], b"x" * 15)
        assert fs.counters.writes == 1
        fs.read_list("f", [(0, 5), (300, 5)])
        assert fs.counters.reads == 1

    def test_listio_cheaper_than_per_segment(self):
        """Per-request CPU is paid once per server, not once per segment."""
        segs = [(i * 1000, 8) for i in range(32)]
        payload = b"z" * (8 * 32)

        # Fast disks so the per-request CPU cost dominates both variants.
        fast = dict(request_cpu_time=0.01, nservers=2, disk_bandwidth=1e9)
        fs1 = make_striped(**fast)
        fs1.create("f")
        t_list = fs1.write_list("f", segs, payload)

        fs2 = make_striped(**fast)
        fs2.create("f")
        t = 0.0
        pos = 0
        for off, n in segs:
            t = fs2.write("f", off, payload[pos:pos + n], ready_time=t)
            pos += n
        assert t_list < t / 3

    def test_empty_list(self):
        fs = make_striped()
        fs.create("f")
        assert fs.write_list("f", [], b"", ready_time=2.0) == 2.0
        data, done = fs.read_list("f", [], ready_time=3.0)
        assert data == b""

    def test_fault_injection_applies(self):
        from repro.pfs import InjectedIOError

        fs = make_striped()
        fs.create("f")
        fs.inject_fault("write", "f")
        with pytest.raises(InjectedIOError):
            fs.write_list("f", [(0, 1)], b"x")


class TestListIOHint:
    def strided_program(self, comm, hints):
        shape = (16, 16)
        lo = comm.rank * (shape[1] // comm.size)
        n = shape[1] // comm.size
        ftype = Subarray(shape, (shape[0], n), (0, lo), FLOAT64)
        fh = File.open(comm, "g", "w", hints=hints)
        fh.set_view(0, FLOAT64, ftype)
        data = np.full((shape[0], n), float(comm.rank))
        fh.write(data)
        fh.close()
        fh = File.open(comm, "g", "r", hints=hints)
        fh.set_view(0, FLOAT64, ftype)
        got = fh.read_at(0, np.empty((shape[0], n)))
        fh.close()
        np.testing.assert_array_equal(got, data)
        return True

    def test_hint_roundtrip_correctness(self):
        m = make_machine(4, fs=make_striped())
        res = run_spmd(m, self.strided_program,
                       args=(Hints(use_listio=True),))
        assert all(res.results)

    def test_hint_reduces_request_count(self):
        m1 = make_machine(4, fs=make_striped())
        run_spmd(m1, self.strided_program,
                 args=(Hints(use_listio=True),))
        listio_writes = m1.fs.counters.writes

        m2 = make_machine(4, fs=make_striped())
        run_spmd(m2, self.strided_program,
                 args=(Hints(use_listio=False, ds_write=False),))
        naive_writes = m2.fs.counters.writes
        assert listio_writes < naive_writes / 4
