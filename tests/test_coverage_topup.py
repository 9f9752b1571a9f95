"""Targeted tests for remaining thin spots across the stack."""

import numpy as np
import pytest

from repro.iostack import registry
from repro.mpi import collectives as coll
from repro.mpi import run_spmd

from .conftest import make_machine


class TestCollectiveRoots:
    @pytest.mark.parametrize("root", [1, 3])
    def test_reduce_nonzero_root(self, root):
        m = make_machine(5)

        def program(comm):
            return coll.reduce(comm, comm.rank, op=coll.SUM, root=root)

        res = run_spmd(m, program)
        assert res.results[root] == 10
        assert all(r is None for i, r in enumerate(res.results) if i != root)

    def test_gatherv_scatterv_aliases(self):
        m = make_machine(3)

        def program(comm):
            objs = None
            if comm.rank == 1:
                objs = [f"p{r}" * (r + 1) for r in range(comm.size)]
            mine = coll.scatterv(comm, objs, root=1)
            back = coll.gatherv(comm, mine, root=1)
            return back

        res = run_spmd(m, program)
        assert res.results[1] == ["p0", "p1p1", "p2p2p2"]

    def test_allreduce_min_on_arrays(self):
        m = make_machine(4)

        def program(comm):
            arr = np.array([comm.rank, -comm.rank], dtype=np.float64)
            return coll.allreduce(comm, arr, op=coll.MIN)

        res = run_spmd(m, program)
        for out in res.results:
            np.testing.assert_array_equal(out, [0.0, -3.0])


class TestCliFigures:
    @pytest.mark.parametrize("fig,procs", [("fig6", 4), ("fig7", 8),
                                           ("fig8", 8), ("fig9", 4)])
    def test_every_figure_command_runs(self, fig, procs, capsys):
        from repro.cli import main

        assert main(["figure", fig, "--problem", "AMR16",
                     "--procs", str(procs)]) == 0
        out = capsys.readouterr().out
        assert "WRITE" in out and "READ" in out


class TestHdf4FormatEdges:
    def test_zero_dim_dataset(self):
        from repro.hdf4 import SDFile

        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            sd.create("empty", np.float64, (0,)).write(
                np.empty(0, dtype=np.float64)
            )
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            got = sd.select("empty").read()
            return got.shape

        res = run_spmd(make_machine(1), program)
        assert res.results[0] == (0,)

    def test_long_dataset_names(self):
        from repro.hdf4 import SDFile

        def program(comm):
            sd = SDFile.start(comm, "f", "w")
            name = "x" * 200
            sd.create(name, np.int32, (3,)).write(np.arange(3, dtype=np.int32))
            sd.end()
            sd = SDFile.start(comm, "f", "r")
            return sd.select(name).read().tolist()

        assert run_spmd(make_machine(1), program).results[0] == [0, 1, 2]


class TestHyperslabStrideBlock:
    def test_strided_block_write_read(self):
        """Full stride/block hyperslab semantics through the data path."""
        from repro.hdf5 import H5File, Hyperslab

        def program(comm):
            f = H5File.create(comm, "f", driver="sec2")
            d = f.create_dataset("x", (20,), np.float64)
            d.write(np.zeros(20), collective=False)
            sel = Hyperslab(start=(1,), count=(3,), stride=(6,), block=(2,))
            d.write(np.arange(6, dtype=np.float64), sel, collective=False)
            full = d.read(collective=False)
            f.close()
            return full

        full = run_spmd(make_machine(1), program).results[0]
        expect = np.zeros(20)
        expect[1:3] = [0, 1]
        expect[7:9] = [2, 3]
        expect[13:15] = [4, 5]
        np.testing.assert_array_equal(full, expect)


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


class TestMachineEdges:
    def test_single_proc_machine_runs_everything(self):
        from repro.bench import build_workload, run_checkpoint_experiment
        from repro.topology import origin2000

        r = run_checkpoint_experiment(
            origin2000(nprocs=1), registry.create("hdf4"), build_workload("AMR16"),
            nprocs=1,
        )
        assert r.write_time > 0 and r.read_time > 0
