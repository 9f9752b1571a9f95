"""End-to-end tests: auto-tuning loop, acceptance contrast, CLI wiring."""

import json

import pytest

from repro.bench import build_workload, run_traced_experiment
from repro.cli import main
from repro.insights import AutoTuner, Severity, diagnose
from repro.insights.autotune import stripe_size_of
from repro.iostack import registry
from repro.mpiio.hints import Hints
from repro.topology import origin2000

MB = 1024 * 1024


@pytest.fixture(scope="module")
def amr16_report():
    return AutoTuner(
        lambda n: origin2000(nprocs=n),
        problem="AMR16",
        nprocs=4,
        strategy="hdf4",
        max_rounds=2,
    ).tune()


def test_autotune_improves_small_request_workload(amr16_report):
    report = amr16_report
    assert report.baseline.strategy == "hdf4"
    # the stall rule pushes past mpi-io to the end of the upgrade chain
    assert report.best.strategy == "mpi-io-async"
    assert report.bandwidth_delta > 0  # strictly positive improvement
    assert report.speedup > 1.0
    assert report.best.high == 0
    assert report.baseline.high >= 1
    assert report.unapplied_upgrades == []  # the chain was fully explored
    # the report explains itself and serializes
    text = report.explain()
    assert "auto-tune AMR16" in text
    data = report.to_dict()
    assert data["bandwidth_delta_mb_s"] > 0
    assert data["steps"][0]["strategy"] == "hdf4"


def test_every_round_measures_the_same_workload(amr16_report):
    """Sync and async rounds run the same driver workload, so the speedup
    compares strategies, not workloads: every round writes within 1 % of
    the bytes round 0 wrote."""
    base = amr16_report.baseline.bytes_written
    assert len(amr16_report.steps) >= 2
    for step in amr16_report.steps:
        assert abs(step.bytes_written - base) <= 0.01 * base, step


def diagnose_run(strategy, hints, nprocs=8):
    machine = origin2000(nprocs=nprocs)
    _result, trace = run_traced_experiment(
        machine, strategy, build_workload("AMR32"),
        nprocs=nprocs, do_read=False,
    )
    return diagnose(
        trace,
        nprocs=nprocs,
        nnodes=machine.nnodes,
        stripe_size=stripe_size_of(machine),
        hints=hints,
        strategy=strategy.name,
    )


def test_figure6_contrast_hdf4_high_vs_tuned_clean():
    """The acceptance criterion: the Figure-6 workload diagnoses HIGH under
    serial HDF4 and clean under tuned collective MPI-IO."""
    diag = diagnose_run(registry.create("hdf4"), None)
    assert diag.count(Severity.HIGH) >= 1
    rules = {i.rule for i in diag.findings(Severity.HIGH)}
    assert rules & {"small-requests", "file-per-grid", "single-writer"}

    stripe = 1 * MB  # origin2000's XFS stripe
    tuned = Hints().replace(
        wb_buffer_size=4 * MB, cb_align=stripe, striping_unit=stripe
    )
    diag = diagnose_run(registry.create("mpi-io", hints=tuned), tuned)
    assert diag.count(Severity.HIGH) == 0


def test_cli_tune_writes_bench_artifact(tmp_path, capsys):
    out = tmp_path / "BENCH_insights.json"
    rc = main([
        "tune", "--problem", "AMR16", "--procs", "4",
        "--strategy", "hdf4", "--out", str(out),
    ])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["bandwidth_delta_mb_s"] > 0
    assert data["speedup"] > 1.0
    assert data["steps"][-1]["high"] == 0
    assert "auto-tune" in capsys.readouterr().out


@pytest.fixture
def saved_trace(tmp_path):
    machine = origin2000(nprocs=4)
    _result, trace = run_traced_experiment(
        machine, registry.create("hdf4"), build_workload("AMR16"),
        nprocs=4, do_read=False,
    )
    path = tmp_path / "trace.json"
    trace.save(path)
    return path


def test_cli_insights_reports_and_checks(saved_trace, capsys):
    rc = main(["insights", str(saved_trace), "--procs", "4",
               "--color", "never"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[HIGH]" in out

    # --check turns HIGH findings into a failing exit code
    rc = main(["insights", str(saved_trace), "--procs", "4", "--check",
               "--color", "never"])
    assert rc == 1


def test_cli_insights_json_output(saved_trace, capsys):
    rc = main(["insights", str(saved_trace), "--procs", "4", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["HIGH"] >= 1


def test_cli_insights_missing_trace_exits_2(tmp_path, capsys):
    rc = main(["insights", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_cli_insights_corrupt_trace_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["insights", str(bad)])
    assert rc == 2
    assert "cannot parse" in capsys.readouterr().err


def test_cli_analyze_saved_trace_and_bad_path(saved_trace, tmp_path, capsys):
    rc = main(["analyze", "--trace", str(saved_trace)])
    assert rc == 0
    assert "saved trace" in capsys.readouterr().out

    rc = main(["analyze", "--trace", str(tmp_path / "missing.json")])
    assert rc == 2
    assert "not found" in capsys.readouterr().err
