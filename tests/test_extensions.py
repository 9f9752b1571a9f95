"""Tests for the future-work extensions: per-file striping and shared
file pointers."""

import pytest

from repro.mpi import run_spmd
from repro.mpiio import File, Hints
from repro.pfs import StripedServerFS

from .conftest import make_machine


class TestPerFileStriping:
    def make_fs(self, **kw):
        defaults = dict(
            nservers=4, stripe_size=100, disk_bandwidth=1000.0, seek_time=0.0
        )
        defaults.update(kw)
        return StripedServerFS("fs", **defaults)

    def test_layout_override(self):
        fs = self.make_fs()
        fs.set_file_striping("special", 400)
        assert fs.layout_for("special").stripe_size == 400
        assert fs.layout_for("other").stripe_size == 100

    def test_data_unaffected_by_layout(self):
        fs = self.make_fs()
        fs.set_file_striping("f", 7)
        fs.create("f")
        payload = bytes(range(200))
        fs.write("f", 13, payload)
        data, _ = fs.read("f", 13, 200)
        assert data == payload

    def test_large_stripe_uses_one_server(self):
        fs = self.make_fs()
        fs.set_file_striping("big", 10_000)
        fs.create("big")
        fs.write("big", 0, b"x" * 400)
        # All on server 0 -> serial: 0.4 s, vs 0.1 s with default striping.
        assert fs.servers[0].disk.busy_time == pytest.approx(0.4)

    def test_striping_unit_hint_applied_on_create(self):
        fs = self.make_fs()
        m = make_machine(2, fs=fs)

        def program(comm):
            fh = File.open(comm, "hinted", "w",
                           hints=Hints(striping_unit=12345))
            fh.write_at_all(0, b"hello")
            fh.close()
            return None

        run_spmd(m, program)
        assert fs.layout_for("hinted").stripe_size == 12345


class TestSharedFilePointer:
    def test_writes_are_disjoint_and_cover(self):
        m = make_machine(4)

        def program(comm):
            fh = File.open(comm, "log", "w")
            payload = bytes([65 + comm.rank]) * (comm.rank + 1)
            fh.write_shared(payload)
            fh.close()
            return len(payload)

        res = run_spmd(m, program)
        total = sum(res.results)
        raw = m.fs.store.open("log").read(0, total)
        # Every rank's bytes appear exactly once, contiguously.
        for rank in range(4):
            marker = bytes([65 + rank]) * (rank + 1)
            assert raw.count(bytes([65 + rank])) == rank + 1
            assert marker in raw

    def test_shared_pointer_orders_deterministically(self):
        def run_once():
            m = make_machine(3, latency=1e-4)

            def program(comm):
                comm.compute(0.001 * (3 - comm.rank))  # reverse arrival order
                fh = File.open(comm, "log", "w")
                fh.write_shared(bytes([48 + comm.rank]) * 4)
                fh.close()
                return None

            run_spmd(m, program)
            return m.fs.store.open("log").read(0, 12)

        assert run_once() == run_once()

    def test_read_shared_consumes_in_order(self):
        m = make_machine(2)

        def program(comm):
            if comm.rank == 0:
                fh = File.open(comm, "f", "w")
                fh.write_at(0, bytes(range(16)))
                fh.close()
            else:
                File.open(comm, "f", "rw").close()
            fh = File.open(comm, "f", "r")
            a = fh.read_shared(8)
            fh.close()
            return a

        res = run_spmd(m, program)
        got = sorted(res.results)
        assert got == [bytes(range(8)), bytes(range(8, 16))]

    def test_partial_etype_rejected(self):
        from repro.mpi.datatypes import FLOAT64
        from repro.sim import RankFailedError

        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w")
            fh.set_view(0, FLOAT64)
            fh.write_shared(b"123")  # 3 bytes is not a whole float64

        with pytest.raises(RankFailedError):
            run_spmd(m, program)
