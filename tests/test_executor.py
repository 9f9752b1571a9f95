"""The parallel cell executor: determinism, jobs resolution, CLI wiring.

The tentpole contract is that a cell record is a pure function of its
spec, so fanning the matrix across worker processes must be invisible in
the output: parallel == serial byte-for-byte, down to the JSON artifact.
These tests pin that on a small regress slice (the full matrix is the
slow-marked gate's job) plus the ``--jobs``/``REPRO_JOBS`` semantics.
"""

import json
import pathlib
import shutil

import pytest

from repro.bench import GATES, CellCache, run_gate
from repro.bench.executor import default_jobs, resolve_jobs, run_cells
from repro.bench.timings import Telemetry
from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SLICE = ["fig6:hdf4:2", "fig6:hdf4:4", "fig6:mpi-io:2", "fig6:mpi-io:4"]


def _slice_cells():
    return GATES["regress"].select(SLICE)


def _canon(records) -> bytes:
    return json.dumps(records, sort_keys=True).encode()


# -- determinism --------------------------------------------------------------


@pytest.mark.slow
def test_parallel_matches_serial_byte_for_byte():
    cells = _slice_cells()
    serial = run_gate(GATES["regress"], cells, jobs=1)
    parallel = run_gate(GATES["regress"], cells, jobs=4)
    assert _canon(serial) == _canon(parallel)


@pytest.mark.slow
def test_parallel_preserves_cell_order():
    cells = _slice_cells()
    payload = run_gate(GATES["regress"], cells, jobs=4)
    assert list(payload["cells"]) == [c.id for c in cells]


@pytest.mark.slow
def test_run_cells_records_worker_telemetry():
    cells = _slice_cells()
    telemetry = Telemetry("regress", jobs=2)
    run_cells("regress", cells, extras={c.id: {"hints": None} for c in cells},
              jobs=2, telemetry=telemetry)
    entries = {e["cell"]: e for e in telemetry.entries}
    assert set(entries) == {c.id for c in cells}
    for e in entries.values():
        assert e["cache"] == "off"
        assert e["wall_us"] > 0
        assert e["worker"] >= 0
        assert e["queue_wait_us"] >= 0
    # dense worker ids: 2 jobs -> ids drawn from {0, 1}
    assert {e["worker"] for e in entries.values()} <= {0, 1}


@pytest.mark.slow
def test_second_run_over_a_shared_cache_is_all_hits_and_identical(tmp_path):
    """What tier-1's full-matrix test and ``repro regress`` do in turn:
    two runs, two ``CellCache`` objects, one directory."""
    cells = _slice_cells()
    cold_cache, warm_cache = CellCache(tmp_path), CellCache(tmp_path)
    cold = run_gate(GATES["regress"], cells, jobs=2, cache=cold_cache)
    assert (cold_cache.hits, cold_cache.misses) == (0, len(cells))
    warm = run_gate(GATES["regress"], cells, cache=warm_cache)
    assert (warm_cache.hits, warm_cache.misses) == (len(cells), 0)
    assert _canon(warm) == _canon(cold)


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        run_cells("no-such-family", [])


# -- jobs resolution ----------------------------------------------------------


def test_default_jobs_clamps_to_cells():
    assert default_jobs(1) == 1
    assert 1 <= default_jobs(64) <= 64


def test_resolve_jobs_explicit():
    assert resolve_jobs(3, n_cells=10) == 3
    # explicit values are taken as-is, not clamped to the cell count
    assert resolve_jobs(8, n_cells=2) == 8


@pytest.mark.parametrize("bad", [0, -1, -8])
def test_resolve_jobs_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        resolve_jobs(bad, n_cells=4)


def test_resolve_jobs_env_override():
    assert resolve_jobs(None, n_cells=10, env={"REPRO_JOBS": "6"}) == 6
    # env values are clamped to the cell count (no idle workers)
    assert resolve_jobs(None, n_cells=2, env={"REPRO_JOBS": "6"}) == 2


@pytest.mark.parametrize("bad", ["0", "-2", "four"])
def test_resolve_jobs_rejects_bad_env(bad):
    with pytest.raises(ValueError):
        resolve_jobs(None, n_cells=4, env={"REPRO_JOBS": bad})


def test_resolve_jobs_empty_env_means_unset():
    assert resolve_jobs(None, n_cells=1, env={"REPRO_JOBS": ""}) == 1


# -- CLI wiring ---------------------------------------------------------------


@pytest.mark.parametrize("command", ["regress", "scale", "overlap"])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_nonpositive_jobs(command, jobs, capsys):
    assert main([command, "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_cli_rejects_bad_repro_jobs_env(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "zero")
    assert main(["regress", "--cell", "fig6:hdf4:2"]) == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


@pytest.mark.slow
def test_cli_parallel_artifact_matches_serial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(ROOT / "BENCH_figures.json", tmp_path / "BENCH_figures.json")
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    args = ["regress", "--quiet", "--no-cache", "--timings", "",
            "--cell", "fig6:hdf4:2", "--cell", "fig6:mpi-io:2"]
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(args + ["--jobs", "4", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
