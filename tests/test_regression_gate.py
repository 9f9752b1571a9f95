"""Tests for the paper-figure conformance & perf-regression harness.

Fast tests cover the declarative matrix, the comparison semantics
(bands, golden digests, exact counters, trend assertions) on synthetic
payloads, and the CLI's exit-code contract against the *committed*
``BENCH_figures.json`` baseline using the cheap fig5 cells.

The ``regression``-marked tests run real cells: the perturbation
self-test (a deliberately detuned ``cb_buffer_size`` must trip the gate
with a named violation) and -- ``slow``-marked -- the full-matrix
conformance run that re-validates every paper trend against the
committed baseline.
"""

import copy
import json
import os

import pytest

from functools import partial

from repro.bench import (
    GATES,
    MATRIX,
    TRENDS,
    CellCache,
    default_jobs,
    parse_perturbations,
    run_gate,
)
from repro.bench import cellrunner
from repro.bench.baselines import cell_by_id
from repro.bench.regression import BANDED_METRICS, EXACT_METRICS
from repro.cli import main

GATE = GATES["regress"]
select_cells = GATE.select
compare = partial(cellrunner.compare, GATE)
format_report = partial(cellrunner.format_report, GATE)
load_baseline = partial(cellrunner.load_baseline, GATE)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO_ROOT, "BENCH_figures.json")


# -- declarative matrix -------------------------------------------------------


class TestMatrixDefinitions:
    def test_cell_ids_are_unique(self):
        ids = [c.id for c in MATRIX]
        assert len(ids) == len(set(ids))

    def test_every_figure_is_covered(self):
        figures = {c.figure for c in MATRIX}
        assert figures == {"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
                           "lustre", "scda", "foggie-nested", "nyx-plotfile",
                           "flashx-particles"}

    def test_trend_endpoints_exist_and_ids_unique(self):
        ids = {c.id for c in MATRIX}
        tids = [t.id for t in TRENDS]
        assert len(tids) == len(set(tids))
        for t in TRENDS:
            assert t.left in ids, t.id
            assert t.right in ids, t.id
            assert t.relation in ("gt", "ge", "lt", "le", "eq")

    def test_issue_mandated_trends_are_present(self):
        tids = {t.id for t in TRENDS}
        # the GPFS 16-proc read inversion and hdf5 <= mpiio, by name
        assert "fig7-read-inversion-P16" in tids
        assert {f"fig10-hdf5-bw-P{p}" for p in (4, 8, 16)} <= tids
        assert {f"fig6-write-bw-P{p}" for p in (4, 8, 16)} <= tids

    def test_trend_holds_relations(self):
        t = TRENDS[0]
        assert t.holds(1.0, 2.0) == (t.relation in ("lt", "le"))

    def test_cell_by_id(self):
        assert cell_by_id("fig6:hdf4:2").machine == "origin2000"
        with pytest.raises(KeyError):
            cell_by_id("fig6:hdf4:1024")


class TestSelectCells:
    def test_default_is_full_matrix(self):
        assert select_cells(None) == list(MATRIX)
        assert select_cells([]) == list(MATRIX)

    def test_figure_subset(self):
        cells = select_cells(["fig7"])
        assert {c.figure for c in cells} == {"fig7"}
        assert len(cells) == 4

    def test_exact_cell_and_dedup(self):
        cells = select_cells(["fig6:mpi-io:8", "fig6:mpi-io:8", "fig6:mpi-io"])
        assert len(cells) == len({c.id for c in cells})
        assert any(c.id == "fig6:mpi-io:8" for c in cells)

    @pytest.mark.parametrize(
        "spec", ["nosuch", "fig6:hdf9", "fig6:mpi-io:3", "fig6:mpi-io:x", "a:b:c:d", ""]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            select_cells([spec])

    @pytest.mark.parametrize("spec, ids", [
        ("origin2000:mpi-io:P64", ["origin2000:mpi-io:P64"]),
        ("chiba*:hdf4:1*", ["chiba_city:hdf4:P16", "chiba_city:hdf4:P128",
                            "chiba_city:hdf4:P1024"]),
    ])
    def test_scale_rows_share_the_grammar(self, spec, ids):
        assert [c.id for c in GATES["scale"].select([spec])] == ids

    @pytest.mark.parametrize("spec", ["bogus", "origin2000:mpi-io:Px", "a:b:c:d"])
    def test_bad_scale_specs_raise(self, spec):
        with pytest.raises(ValueError):
            GATES["scale"].select([spec])


class TestParsePerturbations:
    def test_good_spec(self):
        out = parse_perturbations(["fig6:mpi-io:8:cb_buffer_size=65536"])
        assert out == {"fig6:mpi-io:8": {"cb_buffer_size": 65536}}

    def test_bool_and_multiple(self):
        out = parse_perturbations(
            ["fig6:mpi-io:8:ds_read=false", "fig6:mpi-io:8:cb_align=4096"]
        )
        assert out == {"fig6:mpi-io:8": {"ds_read": False, "cb_align": 4096}}

    @pytest.mark.parametrize(
        "spec", ["nonsense", "fig6:mpi-io:8:nosuchhint=1", "fig6:mpi-io:8:cb_align",
                 # read as False / a ValueError naming no spec
                 "fig6:mpi-io:8:ds_write=ture", "fig6:mpi-io:8:cb_buffer_size=big"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_perturbations([spec])


# -- comparison semantics on synthetic payloads -------------------------------


def fake_payload():
    cell = {
        "figure": "fig6", "machine": "origin2000", "problem": "AMR32",
        "strategy": "mpi-io", "nprocs": 8,
        "write_s": 0.5, "read_s": 0.1,
        "write_bw": 100.0, "read_bw": 200.0,
        "write_phases": {}, "read_phases": {},
        "bytes_written": 1000, "bytes_read": 500,
        "fs_write_requests": 10, "fs_read_requests": 5,
        "fs_recoveries": 0, "trace_events": 15,
        "trace_digest": "sha256:aaaa", "file_digest": "",
        "findings": ["small-requests:HIGH"], "high": 1,
    }
    other = dict(cell, strategy="hdf4", write_bw=50.0, trace_digest="sha256:bbbb")
    return {
        "schema": GATE.schema,
        "rtol": 0.05,
        "cells": {"fig6:mpi-io:8": cell, "fig6:hdf4:8": other},
        "trends": [
            {
                "id": "fig6-write-bw-P8", "description": "mpiio wins",
                "metric": "write_bw", "left": "fig6:mpi-io:8",
                "relation": "gt", "right": "fig6:hdf4:8", "ok": True,
            }
        ],
    }


class TestCompare:
    def test_identical_payloads_pass(self):
        base = fake_payload()
        report = compare(copy.deepcopy(base), base)
        assert report.ok
        assert report.cells_checked == 2
        assert report.trends_checked == 1
        assert "PASS" in format_report(report)

    def test_band_violation_names_metric_and_cell(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["write_bw"] = 90.0  # -10% > 5% band
        report = compare(cur, base)
        kinds = {(v["kind"], v["metric"], v["cell"]) for v in report.violations}
        assert ("band", "write_bw", "fig6:mpi-io:8") in kinds
        text = format_report(report)
        assert "FAIL" in text and "write_bw" in text and "-10.0%" in text

    def test_within_band_passes(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["write_bw"] = 98.0  # -2% inside band
        assert compare(cur, base).ok

    def test_rtol_override(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["write_bw"] = 98.0
        assert not compare(cur, base, rtol=0.01).ok

    def test_digest_mismatch_is_a_violation(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["trace_digest"] = "sha256:cccc"
        report = compare(cur, base)
        assert any(v["kind"] == "digest" for v in report.violations)

    def test_exact_counter_drift_is_a_violation(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["fs_write_requests"] = 11
        report = compare(cur, base)
        assert any(
            v["kind"] == "count" and v["metric"] == "fs_write_requests"
            for v in report.violations
        )

    def test_a_changed_diagnosis_is_a_violation(self):
        """The rule x cell table is pinned exactly: one rule that stops
        firing on one cell fails the gate."""
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:mpi-io:8"]["findings"] = []
        report = compare(cur, base)
        assert [v["metric"] for v in report.violations] == ["findings"]

    def test_cell_missing_from_baseline_is_a_violation(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        cur["cells"]["fig6:hdf5:8"] = dict(
            cur["cells"]["fig6:mpi-io:8"], strategy="hdf5"
        )
        report = compare(cur, base)
        assert any(v["kind"] == "missing-cell" for v in report.violations)

    def test_failed_trend_is_reported_with_description(self):
        base = fake_payload()
        cur = copy.deepcopy(base)
        # Invert the paper result: hdf4 suddenly faster. Keep bands green
        # by inverting the baseline too -- the trend must still fail.
        for payload in (cur, base):
            payload["cells"]["fig6:mpi-io:8"]["write_bw"] = 40.0
        cur["trends"][0]["ok"] = False
        report = compare(cur, base)
        trend = [v for v in report.violations if v["kind"] == "trend"]
        assert len(trend) == 1
        assert "fig6-write-bw-P8" in trend[0]["detail"]
        assert "mpiio wins" in trend[0]["detail"]

    def test_metric_lists_cover_payload(self):
        from repro.bench.regression import CADENCE_METRICS

        cell = fake_payload()["cells"]["fig6:mpi-io:8"]
        for m in BANDED_METRICS + EXACT_METRICS:
            if m in CADENCE_METRICS:  # cadence cells only; absent elsewhere
                continue
            assert m in cell


# -- CLI exit-code contract ---------------------------------------------------


class TestRegressCLI:
    def test_fig5_cells_match_committed_baseline(self, capsys):
        rc = main(["regress", "--cell", "fig5", "--baseline", BASELINE,
                   "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS" in out

    def test_out_writes_current_results(self, tmp_path, capsys):
        out_path = tmp_path / "current.json"
        rc = main(["regress", "--cell", "fig5:two-phase:8", "--baseline",
                   BASELINE, "--quiet", "--out", str(out_path)])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert set(payload["cells"]) == {"fig5:two-phase:8"}

    def test_missing_baseline_exits_2(self, tmp_path, capsys):
        rc = main(["regress", "--cell", "fig5:two-phase:8", "--baseline",
                   str(tmp_path / "nope.json"), "--quiet"])
        assert rc == 2
        assert "update-baseline" in capsys.readouterr().err

    def test_corrupt_baseline_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": 99}")
        rc = main(["regress", "--cell", "fig5:two-phase:8", "--baseline",
                   str(bad), "--quiet"])
        assert rc == 2

    def test_unknown_cell_exits_2(self, capsys):
        rc = main(["regress", "--cell", "fig99", "--quiet"])
        assert rc == 2
        assert "matches no cell" in capsys.readouterr().err

    def test_bad_perturb_exits_2(self, capsys):
        rc = main(["regress", "--cell", "fig5", "--perturb", "garbage",
                   "--quiet"])
        assert rc == 2

    def test_perturbing_hdf4_exits_2(self, capsys):
        rc = main(["regress", "--cell", "fig6:hdf4:2", "--baseline", BASELINE,
                   "--perturb", "fig6:hdf4:2:cb_buffer_size=65536", "--quiet"])
        assert rc == 2
        assert "no MPI-IO hints" in capsys.readouterr().err

    def test_update_baseline_subset_merges(self, tmp_path, capsys):
        path = tmp_path / "b.json"
        rc = main(["regress", "--cell", "fig5:two-phase:8",
                   "--update-baseline", "--baseline", str(path), "--quiet"])
        assert rc == 0
        first = load_baseline(str(path))
        assert set(first["cells"]) == {"fig5:two-phase:8"}
        rc = main(["regress", "--cell", "fig5", "--update-baseline",
                   "--baseline", str(path), "--quiet"])
        assert rc == 0
        merged = load_baseline(str(path))
        assert set(merged["cells"]) == {"fig5:two-phase:8", "fig5:independent:8"}
        # both fig5 trend endpoints now exist => trends were re-evaluated
        assert {t["id"] for t in merged["trends"]} >= {
            "fig5-collective-fewer-requests", "fig5-collective-faster",
        }
        # and the merged baseline gates green
        rc = main(["regress", "--cell", "fig5", "--baseline", str(path),
                   "--quiet"])
        assert rc == 0

    def test_update_baseline_subset_reevaluates_trends_on_kept_cells(
        self, tmp_path, capsys
    ):
        """A trend reading one regenerated and one kept cell is re-evaluated
        on the merged cells, and trends keep the gate's order."""
        path = tmp_path / "b.json"
        assert main(["regress", "--cell", "fig5", "--update-baseline",
                     "--baseline", str(path), "--quiet"]) == 0
        payload = json.loads(path.read_text())
        payload["cells"]["fig5:independent:8"]["fs_write_requests"] = 999
        path.write_text(json.dumps(payload))
        assert main(["regress", "--cell", "fig5:two-phase:8",
                     "--update-baseline", "--baseline", str(path),
                     "--quiet"]) == 0
        merged = load_baseline(str(path))
        trends = {t["id"]: t for t in merged["trends"]}
        assert trends["fig5-collective-fewer-requests"]["rhs"] == 999.0
        order = [t.id for t in GATE.trends if t.id in trends]
        assert [t["id"] for t in merged["trends"]] == order


# -- real-cell gate behaviour -------------------------------------------------


@pytest.mark.regression
class TestGateOnRealCells:
    def test_perturbed_tuning_hint_trips_the_gate(self, capsys):
        """Acceptance: detuning cb_buffer_size for the fig6 mpi-io cell
        fails the gate with a per-cell report naming the violated band."""
        rc = main([
            "regress", "--cell", "fig6:mpi-io:8", "--baseline", BASELINE,
            "--perturb", "fig6:mpi-io:8:cb_buffer_size=65536", "--quiet",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "fig6:mpi-io:8" in out
        # the violated band (and the diverged golden trace) are named
        assert "band" in out
        assert "digest" in out

    def test_fig5_trend_assertion_fires_on_inverted_result(self):
        """Force the fig5 contrast to invert (collective with a tiny
        collective buffer and one aggregator is no longer 'few large
        requests') and check the trend machinery reports it on live data."""
        cells = select_cells(["fig5"])
        current = run_gate(
            GATE, cells,
            extras={"fig5:two-phase:8": {"hints": {
                "cb_buffer_size": 512, "ds_write": False,
            }}},
        )
        failed = [t["id"] for t in current["trends"] if not t["ok"]]
        assert "fig5-collective-fewer-requests" in failed


@pytest.mark.regression
@pytest.mark.slow
class TestFullMatrixConformance:
    def test_full_matrix_matches_baseline_and_paper_trends(self):
        # Through the executor and the cell cache ``repro regress`` uses:
        # spawned workers, and one computation of the matrix per source
        # tree shared with the verify flow's regress stage.
        current = run_gate(GATE, jobs=default_jobs(len(MATRIX)),
                           cache=CellCache.from_env())
        baseline = load_baseline(BASELINE)
        report = compare(current, baseline)
        assert report.ok, format_report(report)
        assert report.cells_checked == len(MATRIX)
        bad = [t["id"] for t in current["trends"] if not t["ok"]]
        assert not bad, f"paper trends violated: {bad}"
        assert report.trends_checked == len(TRENDS)
