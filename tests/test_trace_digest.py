"""Golden-trace determinism tests for the canonical IOTrace digest.

The regression gate's determinism axis rests on two properties tested
here against the two-phase collective path (the most communication- and
dict-ordering-heavy code in the stack):

* a fixed 4-rank subarray write produces a **byte-identical canonical
  event stream** across two runs in one process, and
* the digest is identical across processes started with different
  ``PYTHONHASHSEED`` values -- catching str-hash-dependent iteration
  order (sets/dicts of paths) anywhere under ``mpiio/``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.trace import IOTrace, trace_filesystem
from repro.mpi import run_spmd
from repro.mpi.datatypes import FLOAT64, Subarray
from repro.mpiio import File, Hints

from .conftest import make_machine

NPROCS = 4


def subarray_write_program(comm):
    """The fixed collective write: rank r owns the (Block, 1, 1) slab of a
    16^3 array -- interleaved enough that every rank's data crosses the
    two-phase exchange."""
    shape = (16, 16, 16)
    n = shape[0] // comm.size
    ftype = Subarray(shape, (n, shape[1], shape[2]), (n * comm.rank, 0, 0), FLOAT64)
    fh = File.open(comm, "golden", "w", hints=Hints(cb_buffer_size=32 * 1024))
    fh.set_view(0, FLOAT64, ftype)
    fh.write_all(np.full((n, shape[1], shape[2]), float(comm.rank)))
    fh.close()


def traced_run():
    machine = make_machine(NPROCS)
    trace = trace_filesystem(machine.fs)
    try:
        run_spmd(machine, subarray_write_program, nprocs=NPROCS)
    finally:
        trace.detach()
    return trace


def test_two_phase_canonical_stream_is_run_stable():
    a, b = traced_run(), traced_run()
    assert len(a) > 0
    assert a.canonical_events() == b.canonical_events()
    assert a.digest() == b.digest()
    assert a.digest().startswith("sha256:")


def test_canonical_events_preserve_recorded_order_and_coerce_types():
    trace = IOTrace()
    trace.record(op="write", path="f", offset=np.int64(8), nbytes=np.int64(4),
                 start=0.0, end=1.5, node=np.int64(2))
    trace.record(op="meta", path="f", offset=0, nbytes=0,
                 start=1.5, end=1.5, node=0, kind="open")
    events = trace.canonical_events()
    assert events[0] == ("write", "f", 8, 4, "0.0", "1.5", 2, "", 0)
    assert events[1][0] == "meta"
    assert all(isinstance(x, int) for x in (events[0][2], events[0][3], events[0][6]))
    # JSON-serializable despite numpy inputs (the digest depends on it).
    json.dumps(events)


def test_digest_is_sensitive_to_any_event_change():
    base = IOTrace()
    base.record(op="write", path="f", offset=0, nbytes=8,
                start=0.0, end=1.0, node=0)
    variants = []
    for field, value in [("offset", 8), ("nbytes", 16), ("end", 2.0),
                         ("node", 1), ("op", "read"), ("kind", "retry")]:
        t = IOTrace()
        kw = dict(op="write", path="f", offset=0, nbytes=8,
                  start=0.0, end=1.0, node=0)
        kw[field] = value
        t.record(**kw)
        variants.append(t.digest())
    assert len({base.digest(), *variants}) == len(variants) + 1


def test_digest_ignores_nothing_reordering():
    """Same events, swapped order => different digest (order is part of
    the golden stream by design)."""
    a, b = IOTrace(), IOTrace()
    e1 = dict(op="write", path="f", offset=0, nbytes=8, start=0.0, end=1.0, node=0)
    e2 = dict(op="write", path="f", offset=8, nbytes=8, start=1.0, end=2.0, node=1)
    a.record(**e1)
    a.record(**e2)
    b.record(**e2)
    b.record(**e1)
    assert a.digest() != b.digest()


_HASHSEED_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests_parent!r})
import numpy as np
from repro.core.trace import trace_filesystem
from repro.mpi import run_spmd
from tests.test_trace_digest import NPROCS, subarray_write_program
from tests.conftest import make_machine

machine = make_machine(NPROCS)
trace = trace_filesystem(machine.fs)
run_spmd(machine, subarray_write_program, nprocs=NPROCS)
trace.detach()
print(trace.digest())
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
def test_two_phase_digest_is_hashseed_independent(hashseed):
    """The collective write's golden digest must not depend on string-hash
    ordering (PYTHONHASHSEED): any dict/set-of-paths iteration leak in
    mpiio/adio or the exchange plan would show up here."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = _HASHSEED_SCRIPT.format(
        src=os.path.join(repo, "src"), tests_parent=repo
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    digest = out.stdout.strip()
    assert digest == traced_run().digest()
