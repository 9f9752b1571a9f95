"""Tests for write-behind buffering and HDF5 data alignment."""

import numpy as np
import pytest

from repro.hdf5 import H5Costs, H5File
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.mpiio import File, Hints
from repro.pfs import StripedServerFS

from .conftest import make_machine


def seeky_fs():
    return StripedServerFS(
        "wb", nservers=1, stripe_size=1 << 20, disk_bandwidth=50e6,
        seek_time=0.005, request_cpu_time=0.001,
    )


class TestWriteBehind:
    def test_consecutive_writes_coalesce(self):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w", hints=Hints(wb_buffer_size=1 << 20))
            for i in range(10):
                fh.write(bytes([i]) * 100)
            fh.close()
            return None

        run_spmd(m, program)
        assert m.fs.counters.writes == 1  # one flush for ten writes
        expect = b"".join(bytes([i]) * 100 for i in range(10))
        assert m.fs.store.open("f").read(0, 1000) == expect

    def test_seek_forces_flush(self):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w", hints=Hints(wb_buffer_size=1 << 20))
            fh.write_at(0, b"aaaa")
            fh.write_at(100, b"bbbb")  # non-contiguous: flush + restage
            fh.close()
            return None

        run_spmd(m, program)
        assert m.fs.counters.writes == 2
        assert m.fs.store.open("f").read(100, 4) == b"bbbb"

    def test_overflow_flushes(self):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w", hints=Hints(wb_buffer_size=256))
            for _ in range(4):
                fh.write(b"x" * 100)
            fh.close()
            return None

        run_spmd(m, program)
        # 100,200,300>=256 -> flush; 100 -> flush at close: 2 writes.
        assert m.fs.counters.writes == 2

    def test_read_sees_buffered_data(self):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w", hints=Hints(wb_buffer_size=1 << 20))
            fh.write_at(0, b"hello")
            got = fh.read_at(0, 5)  # implicit flush for consistency
            fh.close()
            return got

        res = run_spmd(m, program)
        assert res.results[0] == b"hello"

    def test_sync_flushes(self):
        m = make_machine(1)

        def program(comm):
            fh = File.open(comm, "f", "w", hints=Hints(wb_buffer_size=1 << 20))
            fh.write_at(0, b"data")
            fh.sync()
            visible = comm.machine.fs.store.open("f").size
            fh.close()
            return visible

        assert run_spmd(m, program).results[0] == 4

    def test_write_behind_reduces_time_on_seeky_disk(self):
        def run(wb):
            m = make_machine(1, fs=seeky_fs())

            def program(comm):
                fh = File.open(comm, "f", "w",
                               hints=Hints(wb_buffer_size=wb))
                t0 = comm.clock
                for i in range(64):
                    fh.write(b"p" * 512)
                fh.close()
                return comm.clock - t0

            return run_spmd(m, program).results[0]

        buffered = run(1 << 20)
        unbuffered = run(0)
        assert buffered < unbuffered / 2

    def test_checkpoint_with_write_behind_round_trips(self):
        from repro.amr import make_initial_conditions
        from repro.enzo import RankState, hierarchies_equivalent

        h = make_initial_conditions((8, 8, 8), seed=1, pre_refine=1)
        m = make_machine(2)
        hints = Hints(wb_buffer_size=1 << 20)

        def wp(comm):
            st = RankState.from_hierarchy(h, comm.rank, comm.size)
            registry.create("mpi-io", hints=hints).write_checkpoint(comm, st, "ckpt")

        run_spmd(m, wp)

        def rp(comm):
            state, _ = registry.create("mpi-io").read_checkpoint(comm, "ckpt")
            return state

        res = run_spmd(make_machine(2, fs=m.fs), rp)
        assert hierarchies_equivalent(RankState.collect(res.results), h)


class TestHdf5Alignment:
    def test_alignment_rounds_data_offsets(self):
        def program(comm):
            f = H5File.create(comm, "f", costs=H5Costs(alignment=4096))
            offsets = []
            for name in ("a", "b", "c"):
                d = f.create_dataset(name, (100,), np.float64)
                offsets.append(d.header.data_offset)
                d.write(np.zeros(100), collective=False)
                d.close()
            f.close()
            return offsets

        res = run_spmd(make_machine(1), program)
        assert all(off % 4096 == 0 for off in res.results[0])

    def test_aligned_file_round_trips(self):
        def program(comm):
            costs = H5Costs(alignment=4096)
            f = H5File.create(comm, "f", costs=costs)
            d = f.create_dataset("x", (50,), np.float64)
            d.write(np.arange(50.0), collective=False)
            d.close()
            f.close()
            f = H5File.open(comm, "f")
            got = f.open_dataset("x").read(collective=False)
            f.close()
            np.testing.assert_array_equal(got, np.arange(50.0))
            return True

        assert run_spmd(make_machine(1), program).results[0]

    def test_alignment_reduces_stripe_crossings(self):
        """Aligned data regions touch fewer stripes on a striped volume."""

        def servers_touched(alignment):
            fs = StripedServerFS(
                "s", nservers=8, stripe_size=4096, disk_bandwidth=1e9,
                seek_time=0.0,
            )
            m = make_machine(1, fs=fs)

            def program(comm):
                f = H5File.create(comm, "f", costs=H5Costs(alignment=alignment))
                out = []
                for name in ("a", "b"):
                    d = f.create_dataset(name, (512,), np.float64)  # 4096 B
                    out.append(
                        len(fs.layout.servers_touched(
                            d.header.data_offset, 4096
                        ))
                    )
                    d.write(np.zeros(512), collective=False)
                    d.close()
                f.close()
                return out

            return run_spmd(m, program).results[0]

        assert all(n == 1 for n in servers_touched(4096))
        assert any(n == 2 for n in servers_touched(0))
