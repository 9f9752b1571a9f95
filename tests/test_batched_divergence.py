"""Why the per-message collectives carry the digest-pinned cells.

ROADMAP A.1 asked whether the batched rendezvous (``mpi/batch.py``) could
become the only collective path.  Forced onto the 52 regress cells it
keeps every byte and request count but moves simulated time (table in
docs/architecture.md section 1) and inverts two paper trends, so the two
paths stay as a recorded modelling choice.  This is the guard: batching
is switched on from here only, by wrapping the ``run_spmd`` the runners
import -- ``src/`` has no parameter for it on the regress path.
"""

import hashlib
import json
import os

import pytest

from repro.bench import TRENDS
from repro.bench import runners
from repro.bench.baselines import cell_by_id
from repro.bench.cellrunner import evaluate_trend
from repro.bench.regression import run_cell

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CELLS = ("fig7:hdf4:16", "fig7:mpi-io:16", "fig9:hdf4:2")
INVERSION = next(t for t in TRENDS if t.id == "fig7-write-inversion-P16")


def _store_digest(store) -> str:
    h = hashlib.sha256()
    for path in sorted(store.listdir()):
        f = store.open(path)
        h.update(path.encode())
        h.update(f.read(0, f.size))
    return h.hexdigest()


def _run(cell_id: str, batch: bool) -> tuple[dict, str]:
    """The cell's record and a digest of every byte it left stored."""
    stores = []
    real = runners.run_spmd

    def run_spmd(machine, program, **kwargs):
        stores.append(machine.fs.store)
        return real(machine, program, batch_collectives=batch, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runners, "run_spmd", run_spmd)
        record = run_cell(cell_by_id(cell_id))
    assert all(s is stores[0] for s in stores)
    return record, _store_digest(stores[0])


@pytest.fixture(scope="module")
def both():
    return {cid: (_run(cid, False), _run(cid, True)) for cid in CELLS}


def test_the_wrapper_alone_changes_nothing(both):
    with open(os.path.join(REPO_ROOT, "BENCH_figures.json")) as f:
        committed = json.load(f)["cells"]
    for cid in CELLS:
        assert both[cid][0][0] == committed[cid]


@pytest.mark.parametrize("cid", CELLS)
def test_batching_keeps_bytes_and_requests_but_moves_time(both, cid):
    (plain, plain_bytes), (batched, batched_bytes) = both[cid]
    assert batched_bytes == plain_bytes
    for counter in ("bytes_written", "bytes_read", "fs_write_requests",
                    "fs_read_requests", "trace_events"):
        assert batched[counter] == plain[counter], counter
    assert batched["write_s"] != plain["write_s"]
    assert batched["read_s"] != plain["read_s"]
    assert batched["trace_digest"] != plain["trace_digest"]


def test_batching_inverts_the_gpfs_write_inversion(both):
    """Fig 7's result -- MPI-IO writes *lose* to HDF4 on GPFS at P=16 --
    holds per-message and is lost under the batched timing model."""
    plain = {cid: both[cid][0][0] for cid in CELLS}
    batched = {cid: both[cid][1][0] for cid in CELLS}
    assert evaluate_trend(INVERSION, plain)["ok"]
    assert not evaluate_trend(INVERSION, batched)["ok"]
