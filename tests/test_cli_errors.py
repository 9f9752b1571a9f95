"""CLI error paths: exit codes for bad input, broken pipes, and faults.

Conventions under test: 0 success, 1 failed run/check, 2 usage error
(missing or unparsable input), 141 (= 128 + SIGPIPE) when the output
consumer hangs up.
"""

import json
import os
import sys

import pytest

from repro.cli import main


class TestAnalyzeTraceErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--trace", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_directory_exits_2(self, tmp_path, capsys):
        rc = main(["analyze", "--trace", str(tmp_path)])
        assert rc == 2
        assert "directory" in capsys.readouterr().err

    def test_corrupt_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["analyze", "--trace", str(bad)])
        assert rc == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"surprise": 1}]))
        rc = main(["analyze", "--trace", str(bad)])
        assert rc == 2
        assert "cannot parse" in capsys.readouterr().err


class TestInsightsErrors:
    def test_missing_trace_exits_2(self, tmp_path, capsys):
        rc = main(["insights", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_check_gates_on_high_findings(self, tmp_path):
        trace = tmp_path / "t.json"
        # An hdf4 dump funnels everything through P0 -- reliably HIGH.
        assert main(["analyze", "--problem", "AMR16", "--procs", "4",
                     "--strategy", "hdf4",
                     "--save-trace", str(trace)]) == 0
        assert main(["insights", str(trace), "--procs", "4"]) == 0
        assert main(["insights", str(trace), "--procs", "4", "--check"]) == 1


class TestSigpipe:
    def test_broken_pipe_exits_141(self, monkeypatch):
        class BrokenStdout:
            """A consumer that hung up: every write raises EPIPE."""

            def __init__(self):
                self._fd = os.open(os.devnull, os.O_WRONLY)

            def write(self, s):
                raise BrokenPipeError

            def flush(self):
                pass

            def fileno(self):
                return self._fd

        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main(["table1"]) == 141


class TestSimulateFaultPaths:
    def test_bad_inject_spec_exits_2(self, capsys):
        rc = main(["simulate", "--problem", "AMR16", "--procs", "2",
                   "--cycles", "1", "--inject", "write:bogus"])
        assert rc == 2
        assert "bad --inject spec" in capsys.readouterr().err

    def test_unknown_inject_op_exits_2(self, capsys):
        rc = main(["simulate", "--problem", "AMR16", "--procs", "2",
                   "--cycles", "1", "--inject", "sync"])
        assert rc == 2
        assert "unknown op" in capsys.readouterr().err

    def test_fault_without_retries_exits_1(self, capsys):
        rc = main(["simulate", "--problem", "AMR16", "--procs", "2",
                   "--cycles", "1", "--inject", "write:torn:run"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "simulation failed" in err and "--retries" in err

    def test_fault_with_retries_exits_0(self, capsys):
        rc = main(["simulate", "--problem", "AMR16", "--procs", "2",
                   "--cycles", "1", "--inject", "write:torn:run",
                   "--retries", "2"])
        assert rc == 0
        assert "verified bit-exact" in capsys.readouterr().out


class TestTableCommand:
    def test_table_shows_recoveries_column(self, capsys):
        rc = main(["table", "--problem", "AMR16", "--procs", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        assert header.split() == ["machine", "strategy", "P", "write", "[s]",
                                  "read", "[s]", "recov"]
        for strategy in ("hdf4", "mpi-io", "hdf5"):
            assert strategy in out

    def test_table_counts_recoveries_under_injection(self, capsys):
        rc = main(["table", "--problem", "AMR16", "--procs", "2",
                   "--inject", "write:torn", "--retries", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines()
                if l.split() and l.split()[1:2] != ["strategy"]
                and any(s in l.split() for s in ("hdf4", "mpi-io", "hdf5"))]
        assert len(rows) == 3
        assert any(int(l.split()[-1]) > 0 for l in rows)


class TestFilesystemConstraintErrors:
    """scda requires one coherent shared file; a scatter-mode node-local
    volume can never satisfy that, and the CLI must say so up front."""

    def test_tune_scda_on_scatter_fs_exits_2(self, capsys):
        rc = main(["tune", "--machine", "chiba_city_local",
                   "--strategy", "mpi-io-scda", "--procs", "4"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "coherent-shared-file" in err
        assert "mpi-io-scda" in err

    def test_tune_scda_on_coherent_fs_is_accepted(self, capsys):
        # Same strategy, shared-volume machine: past the gate (exit 0/1
        # both mean "the tuner actually ran").
        rc = main(["tune", "--machine", "lustre", "--problem", "AMR16",
                   "--strategy", "mpi-io-scda", "--procs", "2",
                   "--rounds", "1"])
        assert rc in (0, 1)
        assert "coherent-shared-file" not in capsys.readouterr().err

    def test_strategies_table_surfaces_constraints(self, capsys):
        rc = main(["strategies"])
        assert rc == 0
        out = capsys.readouterr().out
        header = out.splitlines()[1]
        assert "requires" in header.split()
        scda_rows = [l for l in out.splitlines() if l.split()
                     and l.split()[0] in ("mpi-io-scda", "mpi-io-scda-async")]
        assert len(scda_rows) == 2
        assert all("coherent-shared-file" in l for l in scda_rows)

    def test_table_skips_incompatible_strategies(self, capsys):
        rc = main(["table", "--machine", "chiba_city_local",
                   "--problem", "AMR16", "--procs", "2"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "skipping mpi-io-scda" in captured.err
        assert "coherent-shared-file" in captured.err
        assert "mpi-io" in captured.out  # compatible strategies still ran


class TestGateUsageErrors:
    """Usage errors the gate commands used to disagree on: all exit 2
    with a message naming the flag, before any cell runs."""

    @pytest.mark.parametrize("command", ["regress", "scale"])
    @pytest.mark.parametrize("rtol", ["-1", "nan"])
    def test_bad_rtol_exits_2(self, command, rtol, capsys):
        rc = main([command, "--rtol", rtol, "--quiet"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "--rtol" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, cell", [
        ("regress", "fig5:two-phase:8"), ("scale", "origin2000:hdf4:16")])
    def test_wrong_schema_baseline_exits_2(self, command, cell, tmp_path,
                                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "cells": {}}))
        rc = main([command, "--cell", cell, "--baseline", str(bad),
                   "--quiet", "--timings", ""])
        assert rc == 2
        assert "schema" in capsys.readouterr().err

    @pytest.mark.parametrize("content, extra, message", [
        (None, [], "no baseline at"),
        ("{not json", [], "cannot load baseline"),
        ('{"schema": 99, "cells": {}}', [], "cannot load baseline"),
        ("{not json", ["--update-baseline"], "cannot merge into"),
    ], ids=["missing", "corrupt", "wrong-schema", "merge-into-corrupt"])
    def test_unreadable_baseline_exits_2_before_any_cell_runs(
            self, content, extra, message, tmp_path, capsys, monkeypatch):
        def run_cells(*args, **kwargs):
            raise AssertionError("a cell ran before the baseline was read")

        monkeypatch.setattr("repro.bench.executor.run_cells", run_cells)
        path = tmp_path / "baseline.json"
        if content is not None:
            path.write_text(content)
        rc = main(["regress", "--cell", "fig5", "--baseline", str(path),
                   "--quiet", "--timings", ""] + extra)
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err and str(path) in captured.err
        assert captured.out == ""


class TestJobCommandUsageErrors:
    """``analyze``/``simulate``/``table``/``tune``/``figure`` validate their
    options in one place (``cli._job_setup``): exit 2 naming the option,
    nothing printed to stdout, nothing run.  One row per pre-PR-20 bug."""

    @pytest.mark.parametrize("argv, names", [
        # read as "8" / "the whole figure set"
        (["analyze", "--procs", "0"], "--procs"),
        (["simulate", "--procs", "0"], "--procs"),
        (["figure", "fig6", "--procs", "0"], "--procs"),
        # ValueError: network needs at least one node (traceback, exit 1)
        (["analyze", "--procs", "-3"], "--procs"),
        (["table", "--procs", "0"], "--procs"),
        # silently ran 2 cycles
        (["simulate", "--cycles", "0"], "--cycles"),
        # ScenarioError traceback
        (["figure", "fig6", "--problem", "NOPE"], "choose from ["),
        (["table", "--problem", "NOPE"], "choose from ["),
        # silently ran at full scale
        (["analyze", "--downscale", "-3"], "--downscale"),
        # diagnosed the trace as if the value were meaningful
        (["insights", "t.json", "--procs", "-3"], "--procs"),
        (["insights", "t.json", "--stripe", "-4096"], "--stripe"),
        # IndexError traceback: no round ran, so no baseline
        (["tune", "--rounds", "-1"], "--rounds"),
        # ValueError traceback after the hierarchy was built
        (["simulate", "--retries", "-2"], "--retries"),
    ])
    def test_exits_2_naming_the_option(self, argv, names, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert names in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    def test_strategy_is_checked_against_the_file_system(
            self, command, monkeypatch, capsys):
        """``tune`` asked ``registry.check_filesystem`` and ``table``
        skipped on it; ``analyze``/``simulate`` never did.  No registered
        strategy is constrained on their Origin2000, so put a scatter-mode
        volume under that name."""
        from repro.topology import PRESETS

        monkeypatch.setitem(PRESETS, "origin2000",
                            PRESETS["chiba_city_local"])
        rc = main([command, "--problem", "AMR16", "--procs", "2",
                   "--strategy", "mpi-io-scda"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "coherent-shared-file" in captured.err
        assert captured.out == ""

    def test_same_unknown_problem_message_everywhere(self, capsys):
        messages = set()
        for argv in (["analyze"], ["simulate"], ["tune"], ["table"],
                     ["figure", "fig6"]):
            assert main([*argv, "--problem", "NOPE"]) == 2
            messages.add(capsys.readouterr().err)
        assert len(messages) == 1


@pytest.mark.parametrize("argv", [["--retries", "2"], []])
def test_analyze_accepts_retries_flag(argv, capsys):
    rc = main(["analyze", "--problem", "AMR16", "--procs", "2",
               "--strategy", "mpi-io", *argv])
    assert rc == 0
    assert "dump of AMR16" in capsys.readouterr().out
