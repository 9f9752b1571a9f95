"""Tests for the platform presets, bench harness, figures and CLI."""

import numpy as np
import pytest

from repro.bench import (
    ExperimentResult,
    build_initial_workload,
    build_workload,
    render_bars,
    render_figure,
    run_checkpoint_experiment,
    workload_summary,
)
from repro.iostack import registry
from repro.pfs import LocalDiskFS
from repro.topology import (
    PRESETS,
    chiba_city,
    chiba_city_local,
    ibm_sp2,
    origin2000,
)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_construct_with_fs(self, name):
        m = PRESETS[name]()
        assert m.fs is not None
        assert m.nprocs >= 1
        assert m.network.nnodes >= m.nnodes

    def test_origin2000_is_one_rank_per_node(self):
        m = origin2000(nprocs=16)
        assert m.procs_per_node == 1
        assert m.node_of(15) == 15

    def test_sp2_is_8way_smp(self):
        m = ibm_sp2(nprocs=64)
        assert m.procs_per_node == 8
        assert m.node_of(63) == 7
        assert m.fs.write_token_time > 0
        assert m.fs.smp_io_queue_time > 0

    def test_chiba_has_oversubscribed_fabric(self):
        m = chiba_city(8)
        assert m.network.fabric_bandwidth < 8 * m.network.bandwidth

    def test_chiba_local_uses_scatter_mode(self):
        m = chiba_city_local(8)
        assert isinstance(m.fs, LocalDiskFS)

    def test_reset_timing_clears_devices(self):
        m = origin2000(nprocs=2)
        m.fs.create("f")
        m.fs.write("f", 0, b"x" * 100000, node=0, ready_time=0.0)
        m.network.transfer(0.0, 0, 1, 1000)
        assert any(s.disk.busy_until > 0 for s in m.fs.servers)
        m.reset_timing()
        assert all(s.disk.busy_until == 0 for s in m.fs.servers)
        assert all(t.busy_until == 0 for t in m.network.egress)


class TestWorkloads:
    def test_build_workload_cached_and_deterministic(self):
        a = build_workload("AMR16")
        b = build_workload("AMR16")
        # Each call builds afresh: never the same object (callers mutate
        # hierarchies in place), always the same bytes.
        assert a is not b
        assert a.equal(b)
        c = build_workload("AMR16", seed=1)
        assert not c.equal(a)

    def test_initial_workload_has_fewer_grids(self):
        dump = build_workload("AMR32")
        init = build_initial_workload("AMR32")
        assert len(init) <= len(dump)
        assert init.root.dims == dump.root.dims

    def test_summary_fields(self):
        s = workload_summary(build_workload("AMR16"))
        assert set(s) == {"grids", "max_level", "cells", "particles", "data_mb"}
        assert s["cells"] >= 16**3


class TestRunner:
    def test_result_fields_and_row(self):
        m = origin2000(nprocs=4)
        h = build_workload("AMR16")
        r = run_checkpoint_experiment(m, registry.create("mpi-io"), h, nprocs=4)
        assert isinstance(r, ExperimentResult)
        assert r.write_time > 0 and r.read_time > 0
        # Writes cover the data plus a little format/sidecar metadata.
        assert h.total_data_nbytes() <= r.bytes_written <= 1.1 * h.total_data_nbytes()
        assert r.nprocs == 4
        assert len(r.row()) == len(ExperimentResult.HEADERS)
        # fs_recoveries is the last column (visible in `repro table`).
        assert r.row()[-1] == r.fs_recoveries

    def test_do_read_false_skips_read(self):
        m = origin2000(nprocs=2)
        r = run_checkpoint_experiment(
            m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=2,
            do_read=False,
        )
        assert r.read_time == 0.0
        assert r.bytes_read == 0

    def test_restart_read_op(self):
        m = origin2000(nprocs=2)
        r = run_checkpoint_experiment(
            m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=2,
            read_op="restart",
        )
        assert r.read_time > 0

    def test_separate_read_hierarchy(self):
        m = origin2000(nprocs=2)
        dump = build_workload("AMR16")
        init = build_initial_workload("AMR16")
        r = run_checkpoint_experiment(
            m, registry.create("hdf4"), dump, nprocs=2, read_hierarchy=init
        )
        # The initial files were written alongside the dump files.
        assert any(name.startswith("ckpt.init") for name in m.fs.store.listdir())
        assert r.bytes_read >= init.total_data_nbytes()

    def test_bad_read_op_rejected(self):
        m = origin2000(nprocs=2)
        with pytest.raises(ValueError):
            run_checkpoint_experiment(
                m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=2,
                read_op="nope",
            )

    def test_write_read_phases_reported(self):
        m = origin2000(nprocs=2)
        r = run_checkpoint_experiment(
            m, registry.create("mpi-io"), build_workload("AMR16"), nprocs=2
        )
        assert set(r.write_phases) >= {"top_fields", "top_particles", "subgrids"}


class TestFigures:
    def test_render_bars_scales_to_peak(self):
        out = render_bars([("a", 1.0), ("b", 2.0)], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_render_bars_empty(self):
        assert render_bars([]) == "(no data)"

    def test_render_figure_groups_by_x(self):
        out = render_figure(
            "t", {"hdf4": {"P=2": 1.0, "P=4": 1.0}, "mpi": {"P=2": 0.5}}
        )
        assert "P=2 hdf4" in out
        assert "P=2 mpi" in out
        assert "P=4 hdf4" in out

    def test_zero_values_render(self):
        out = render_bars([("x", 0.0)])
        assert "0.000" in out


class TestCLI:
    def test_table1(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "AMR256" in out

    def test_figure_fig10_small(self, capsys):
        from repro.cli import main

        assert main(["figure", "fig10", "--problem", "AMR16",
                     "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "WRITE" in out
        assert "hdf5" in out

    def test_analyze(self, capsys):
        from repro.cli import main

        assert main(["analyze", "--problem", "AMR16", "--procs", "2"]) == 0
        out = capsys.readouterr().out
        assert "WRITE:" in out

    def test_simulate(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--problem", "AMR16", "--procs", "2",
                     "--cycles", "1"]) == 0
        out = capsys.readouterr().out
        assert "verified bit-exact" in out

    def test_unknown_figure_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestCliFigures:
    @pytest.mark.parametrize("fig,procs", [("fig6", 4), ("fig7", 8),
                                           ("fig8", 8), ("fig9", 4)])
    def test_every_figure_command_runs(self, fig, procs, capsys):
        from repro.cli import main

        assert main(["figure", fig, "--problem", "AMR16",
                     "--procs", str(procs)]) == 0
        out = capsys.readouterr().out
        assert "WRITE" in out and "READ" in out


class TestMachineEdges:
    def test_single_proc_machine_runs_everything(self):
        from repro.bench import build_workload, run_checkpoint_experiment
        from repro.topology import origin2000

        r = run_checkpoint_experiment(
            origin2000(nprocs=1), registry.create("hdf4"), build_workload("AMR16"),
            nprocs=1,
        )
        assert r.write_time > 0 and r.read_time > 0
