"""Fault injection through the full I/O stack + utilisation reporting."""

import pytest

from repro.bench import (
    build_workload,
    device_utilization,
    run_checkpoint_experiment,
    run_traced_experiment,
)
from repro.enzo import RankState
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.pfs import FileSystem, InjectedIOError
from repro.sim import RankFailedError
from repro.topology import origin2000

from .conftest import make_machine


class TestFaultInjection:
    def test_fault_fires_once(self):
        fs = FileSystem()
        fs.create("f")
        fs.inject_fault("write", "f")
        with pytest.raises(InjectedIOError):
            fs.write("f", 0, b"x")
        fs.write("f", 0, b"x")  # subsequent ops succeed

    def test_fault_after_n(self):
        fs = FileSystem()
        fs.create("f")
        fs.inject_fault("read", after=2)
        fs.write("f", 0, b"abcd")
        fs.read("f", 0, 1)
        fs.read("f", 0, 1)
        with pytest.raises(InjectedIOError):
            fs.read("f", 0, 1)

    def test_path_filter(self):
        fs = FileSystem()
        fs.create("a")
        fs.create("b")
        fs.inject_fault("write", "a")
        fs.write("b", 0, b"x")  # unaffected
        with pytest.raises(InjectedIOError):
            fs.write("a", 0, b"x")

    def test_meta_fault_on_create(self):
        fs = FileSystem()
        fs.inject_fault("meta", "f")
        with pytest.raises(InjectedIOError):
            fs.create("f")

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            FileSystem().inject_fault("sync")

    @pytest.mark.parametrize("name", [
        pytest.param("mpi-io", id="MPIIOStrategy"),
        pytest.param("hdf4", id="HDF4Strategy"),
    ])
    def test_fault_surfaces_through_checkpoint_write(self, name):
        """A disk error mid-dump aborts the SPMD job with the real cause."""
        h = build_workload("AMR16")
        m = make_machine(4)
        m.fs.inject_fault("write", "ckpt", after=5)

        def program(comm):
            state = RankState.from_hierarchy(h, comm.rank, comm.size)
            registry.create(name).write_checkpoint(comm, state, "ckpt")

        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, program)
        assert isinstance(ei.value.__cause__, InjectedIOError)

    def test_fault_surfaces_through_read(self):
        h = build_workload("AMR16")
        m = make_machine(2)

        def wp(comm):
            state = RankState.from_hierarchy(h, comm.rank, comm.size)
            registry.create("mpi-io").write_checkpoint(comm, state, "ckpt")

        run_spmd(m, wp)
        m.fs.inject_fault("read", "ckpt", after=3)

        def rp(comm):
            registry.create("mpi-io").read_initial(comm, "ckpt")

        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, rp)
        assert isinstance(ei.value.__cause__, InjectedIOError)


class TestUtilizationReport:
    def test_rows_for_striped_machine(self):
        m = origin2000(nprocs=4)
        r = run_checkpoint_experiment(
            m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=4,
            do_read=False,
        )
        # Note: runner resets timelines before each phase; after the write
        # (no read) the devices carry the write phase's accounting.
        rows = device_utilization(m, r.write_time)
        names = [row[0] for row in rows]
        assert any(n.startswith("xfs.disk") for n in names)
        assert any(n.startswith("xfs.chan") for n in names)
        # Every utilisation is a sane percentage string.
        assert all(row[3].endswith("%") for row in rows)

    def test_hdf4_funnel_shows_up_as_hot_channel(self):
        """The P0 I/O channel is the busiest device under HDF4."""
        m = origin2000(nprocs=8)
        r = run_checkpoint_experiment(
            m, registry.create("hdf4"), build_workload("AMR16"), nprocs=8,
            do_read=False,
        )
        chan0 = m.fs._client_channels.get(0)
        assert chan0 is not None
        others = [
            ch.busy_time for node, ch in m.fs._client_channels.items()
            if node != 0
        ]
        assert chan0.busy_time >= max(others, default=0.0)

    def test_localdisk_rows(self):
        from repro.topology import chiba_city_local

        m = chiba_city_local(4)
        r = run_checkpoint_experiment(
            m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=4,
            do_read=False,
        )
        rows = device_utilization(m, r.write_time)
        assert sum(1 for row in rows if "disk[" in row[0]) == 4

    def test_lustre_rows(self):
        """Lustre reports its OST disks and queues, the MDS and the client
        channels; the funnelled HDF4 dump makes the MDS a busy device."""
        from repro.topology.presets import lustre

        m = lustre(4)
        r, trace = run_traced_experiment(
            m, registry.create("hdf4"), build_workload("AMR16"), nprocs=4,
            do_read=False,
        )
        rows = {row[0]: row for row in device_utilization(m, r.write_time)}
        assert sum(1 for name in rows if name.startswith("lustre.disk[")) == 16
        assert sum(1 for name in rows if name.startswith("lustre.ostq[")) == 16
        assert "lustre.chan[0]" in rows
        _, requests, busy, util = rows["lustre.mds"]
        assert requests == len(trace.ops("meta")) > 0
        assert float(busy) > 0.0 and util.endswith("%")
