"""Tests for ``repro.aio``: the background flush service and overlap.

Covers the progress-engine queue semantics (post/retire order,
backpressure, deferred errors), the ``MPI_File_iwrite``-style request
objects, async-vs-sync byte equivalence and restartability, the Enzo
driver's compute/checkpoint overlap win, and the determinism properties
the regression gate relies on (run-stable and PYTHONHASHSEED-independent
golden digests with background-flush events interleaving compute).
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.aio import AioConfig, AioRequest, ProgressEngine
from repro.core.trace import IOTrace, trace_filesystem
from repro.enzo import RankState, hierarchies_equivalent
from repro.enzo.simulation import EnzoConfig, EnzoSimulation
from repro.insights import Severity, diagnose
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.mpiio import File
from repro.topology.presets import origin2000

NPROCS = 4


class FakeProc:
    """Just enough of a Proc for unit-testing the progress engine."""

    def __init__(self):
        self.clock = 0.0

    def advance_to(self, t):
        self.clock = max(self.clock, t)


# -- config & queue semantics ----------------------------------------------


def test_aio_config_validates():
    assert AioConfig().staging_bytes == 64 * 1024 * 1024
    with pytest.raises(ValueError):
        AioConfig(staging_bytes=0)


def test_progress_engine_retires_in_post_order():
    eng = ProgressEngine(AioConfig())
    proc = FakeProc()
    a = eng.post(AioRequest(path="f", nbytes=10, done_time=2.0))
    b = eng.post(AioRequest(path="f", nbytes=20, done_time=5.0))
    assert eng.clock == 5.0  # drain timeline extends to the last post
    assert eng.staged_bytes == 30
    assert not a.test(proc) and not b.test(proc)

    eng.retire_oldest(proc)
    assert a.retired and not b.retired
    assert proc.clock == 2.0
    assert eng.staged_bytes == 20

    eng.drain(proc)
    assert b.retired and proc.clock == 5.0 and eng.staged_bytes == 0


def test_wait_retires_every_older_request_first():
    eng = ProgressEngine(AioConfig())
    proc = FakeProc()
    older = eng.post(AioRequest(path="f", nbytes=1, done_time=1.0))
    newer = eng.post(AioRequest(path="f", nbytes=1, done_time=3.0))
    newer.wait(proc)
    assert older.retired and newer.retired
    assert proc.clock == 3.0


def test_staging_bytes_backpressure_blocks_the_poster():
    eng = ProgressEngine(AioConfig(staging_bytes=100))
    proc = FakeProc()
    eng.post(AioRequest(path="f", nbytes=80, done_time=7.0))
    eng.reserve(10, proc)  # fits: no wait
    assert proc.clock == 0.0
    eng.reserve(30, proc)  # would exceed 100 staged bytes
    assert proc.clock == 7.0 and eng.staged_bytes == 0


def test_deferred_error_surfaces_at_retirement_oldest_first():
    eng = ProgressEngine(AioConfig())
    proc = FakeProc()
    boom = OSError("drain failed")
    eng.post(AioRequest(path="f", nbytes=1, done_time=1.0, error=boom))
    ok = eng.post(AioRequest(path="f", nbytes=1, done_time=2.0))
    with pytest.raises(OSError, match="drain failed"):
        ok.wait(proc)  # waiting on the younger request hits the older error
    ok.wait(proc)  # the failed request was consumed; the rest drains
    assert ok.retired


def test_precompleted_request_without_engine():
    req = AioRequest(path="f", nbytes=0, done_time=1.0, retired=True)
    assert req.test(FakeProc())
    req.wait(FakeProc())  # no-op


# -- iwrite request objects through the File layer --------------------------


def test_iwrite_at_returns_pending_request_then_waits():
    machine = origin2000(nprocs=2)
    payload = np.arange(4096, dtype=np.float64)

    def program(comm):
        fh = File.open(comm, "iw", "w", aio=AioConfig())
        req = fh.iwrite_at(0, payload)
        assert isinstance(req, AioRequest)
        pending_at_post = not req.test(comm.proc)
        req.wait(comm.proc)
        done_after_wait = req.test(comm.proc)
        fh.close()
        return pending_at_post, done_after_wait

    res = run_spmd(machine, program, nprocs=2)
    for pending, done in res.results:
        assert pending  # the drain runs ahead of the rank's clock
        assert done
    stored = machine.fs.store.open("iw").read(0, payload.nbytes)
    assert stored == payload.tobytes()


def test_iwrite_without_aio_config_is_precompleted():
    machine = origin2000(nprocs=2)

    def program(comm):
        fh = File.open(comm, "iw-sync", "w")
        req = fh.iwrite_at(0, b"x" * 512)
        ok = req.retired and req.test(comm.proc)
        fh.close()
        return ok

    res = run_spmd(machine, program, nprocs=2)
    assert all(res.results)


# -- async strategy: byte equivalence and restart ---------------------------


@pytest.fixture(scope="module")
def small_config():
    return EnzoConfig(problem="AMR16", ncycles=2, dump_every=1)


def run_enzo(machine, strategy, config, overlap):
    cfg = EnzoConfig(
        problem=config.problem, ncycles=config.ncycles,
        dump_every=config.dump_every, overlap=overlap,
    )
    sim = EnzoSimulation(
        config=cfg, strategy=strategy,
        hierarchy=EnzoSimulation.build_initial_hierarchy(cfg),
    )
    return run_spmd(
        machine, lambda comm: sim.run(comm, base="dump"), nprocs=NPROCS
    )


def test_async_checkpoint_restarts_bit_identical(small_config):
    machine = origin2000(nprocs=NPROCS)
    run_enzo(machine, registry.create("mpi-io-async"), small_config, True)

    # Restart from the overlapped dump with the synchronous reader: the
    # posted writes landed eagerly, so the data files are ordinary.
    strategy = registry.create("mpi-io")
    last = f"dump.cycle{small_config.ncycles:04d}"

    def restart(comm):
        state, _stats = strategy.read_checkpoint(comm, last)
        return state

    res = run_spmd(machine, restart, nprocs=NPROCS)
    rebuilt = RankState.collect(res.results)

    # The same workload written synchronously must agree bit for bit.
    machine2 = origin2000(nprocs=NPROCS)
    run_enzo(machine2, registry.create("mpi-io"), small_config, False)
    res2 = run_spmd(machine2, restart, nprocs=NPROCS)
    assert hierarchies_equivalent(rebuilt, RankState.collect(res2.results))


def test_overlap_beats_sync_on_makespan(small_config):
    sync = run_enzo(
        origin2000(nprocs=NPROCS), registry.create("mpi-io"),
        small_config, False,
    )
    over = run_enzo(
        origin2000(nprocs=NPROCS), registry.create("mpi-io-async"),
        small_config, True,
    )
    assert over.elapsed < sync.elapsed
    # The exposed write time shrinks: the drain hides behind compute.
    exposed = max(s["write_time"] for s in over.results)
    exposed_sync = max(s["write_time"] for s in sync.results)
    assert exposed < exposed_sync


# -- determinism: run-stable and PYTHONHASHSEED-independent -----------------


def traced_async_run():
    machine = origin2000(nprocs=NPROCS)
    cfg = EnzoConfig(problem="AMR16", ncycles=2, dump_every=1, overlap=True)
    sim = EnzoSimulation(
        config=cfg, strategy=registry.create("mpi-io-async"),
        hierarchy=EnzoSimulation.build_initial_hierarchy(cfg),
    )
    trace = trace_filesystem(machine.fs, include_meta=True)
    try:
        run_spmd(machine, lambda comm: sim.run(comm, base="dump"),
                 nprocs=NPROCS)
    finally:
        trace.detach()
    return trace


def test_overlap_event_stream_is_run_stable():
    a, b = traced_async_run(), traced_async_run()
    assert len(a) > 0
    assert a.canonical_events() == b.canonical_events()
    assert a.digest() == b.digest()


_HASHSEED_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests_parent!r})
from tests.test_aio import traced_async_run
print(traced_async_run().digest())
"""


@pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
def test_overlap_digest_is_hashseed_independent(hashseed):
    """Background-flush events interleaved with compute must not pick up
    str-hash iteration order anywhere in aio/, mpiio/, or the driver."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = _HASHSEED_SCRIPT.format(
        src=os.path.join(repo, "src"), tests_parent=repo
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=300, check=True,
    )
    assert out.stdout.strip() == traced_async_run().digest()


# -- the synchronous-checkpoint-stall detector ------------------------------


def dense_write_trace(n=20, nbytes=1 << 20):
    trace = IOTrace()
    for i in range(n):
        trace.record(op="write", path="dump", offset=i * nbytes,
                     nbytes=nbytes, start=float(i), end=i + 0.9, node=0)
    return trace


def test_stall_rule_warns_on_sync_strategy_and_points_at_async():
    diag = diagnose(dense_write_trace(), nprocs=4,
                    rules=["sync-checkpoint-stall"], strategy="mpi-io")
    warns = diag.findings(Severity.WARN)
    assert len(warns) == 1
    recs = warns[0].recommendations
    assert recs and recs[0].params["to"] == "mpi-io-async"


def test_stall_rule_is_quiet_for_async_strategy():
    diag = diagnose(dense_write_trace(), nprocs=4,
                    rules=["sync-checkpoint-stall"],
                    strategy="mpi-io-async")
    assert diag.count(Severity.WARN) == 0
    assert diag.count(Severity.HIGH) == 0


def test_stall_rule_is_quiet_when_writes_are_sparse():
    trace = IOTrace()
    for i in range(4):
        trace.record(op="write", path="dump", offset=i * 100,
                     nbytes=100, start=i * 50.0, end=i * 50.0 + 0.5, node=0)
    diag = diagnose(trace, nprocs=4, rules=["sync-checkpoint-stall"],
                    strategy="mpi-io")
    assert diag.count(Severity.WARN) == 0
