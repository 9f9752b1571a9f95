"""Resilience detector rules: retry-storm and degraded-collective."""

import pytest

from repro.core import IOTrace
from repro.insights import Severity, diagnose
from repro.iostack import registry


def make_trace(*, writes=0, retries=0, recovered=0, giveups=0, degraded=0):
    """A synthetic trace with the given event mix."""
    trace = IOTrace()
    for i in range(writes):
        trace.record(op="write", path="ckpt", offset=i * 1024, nbytes=1024,
                     start=float(i), end=float(i) + 0.5, node=i % 4)
    kinds = (
        [("retry", i + 1) for i in range(retries)]
        + [("recovered", 1)] * recovered
        + [("giveup", 0)] * giveups
        + [("degraded", 0)] * degraded
    )
    for i, (kind, attempt) in enumerate(kinds):
        trace.record(op="recovery", path="ckpt", offset=0, nbytes=2048,
                     start=float(i), end=float(i), node=0, kind=kind,
                     attempt=attempt)
    return trace


def findings(diagnosis, rule):
    return [i for i in diagnosis.insights if i.rule == rule]


class TestRetryStorm:
    def test_silent_without_recovery_events(self):
        d = diagnose(make_trace(writes=20))
        assert findings(d, "retry-storm") == []
        assert findings(d, "degraded-collective") == []

    def test_few_retries_are_info(self):
        d = diagnose(make_trace(writes=100, retries=2, recovered=2))
        (i,) = findings(d, "retry-storm")
        assert i.severity == Severity.INFO
        assert "recovered" in i.title
        assert i.evidence["retries"] == 2
        assert i.evidence["max_attempt"] == 2

    def test_sustained_retries_warn(self):
        d = diagnose(make_trace(writes=100, retries=10, recovered=10))
        (i,) = findings(d, "retry-storm")
        assert i.severity == Severity.WARN
        assert "retry storm" in i.title
        assert i.recommendations

    def test_heavy_retries_are_high(self):
        d = diagnose(make_trace(writes=100, retries=30, recovered=30))
        (i,) = findings(d, "retry-storm")
        assert i.severity == Severity.HIGH

    def test_any_giveup_is_high(self):
        d = diagnose(make_trace(writes=100, retries=1, giveups=1))
        (i,) = findings(d, "retry-storm")
        assert i.severity == Severity.HIGH
        assert "gave up" in i.title
        assert i.evidence["giveups"] == 1


class TestDegradedCollective:
    def test_degradations_warn(self):
        d = diagnose(make_trace(writes=50, degraded=1))
        (i,) = findings(d, "degraded-collective")
        assert i.severity == Severity.WARN
        assert i.evidence["degraded"] == 1
        assert i.evidence["degraded_bytes"] == 2048

    def test_many_degradations_are_high(self):
        d = diagnose(make_trace(writes=50, degraded=4))
        (i,) = findings(d, "degraded-collective")
        assert i.severity == Severity.HIGH

    def test_recoveries_without_degradations_read_ok(self):
        d = diagnose(make_trace(writes=50, retries=1, recovered=1))
        (i,) = findings(d, "degraded-collective")
        assert i.severity == Severity.OK


class TestEndToEnd:
    @pytest.fixture()
    def faulted_trace(self):
        from repro.bench import build_workload
        from repro.core import trace_filesystem
        from repro.enzo import RankState
        from repro.mpi import run_spmd
        from repro.resilience import RetryPolicy

        from .conftest import make_machine

        h = build_workload("AMR16")
        m = make_machine(4)
        trace = trace_filesystem(m.fs)
        m.fs.inject_fault("write", "ckpt", after=3)
        strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=2))

        def program(comm):
            state = RankState.from_hierarchy(h, comm.rank, comm.size)
            strategy.write_checkpoint(comm, state, "ckpt")

        run_spmd(m, program)
        trace.detach()
        return trace

    def test_real_recovered_dump_is_diagnosed(self, faulted_trace):
        d = diagnose(faulted_trace, nprocs=4, strategy="mpi-io")
        (i,) = findings(d, "retry-storm")
        assert i.severity in (Severity.INFO, Severity.WARN)
        assert i.evidence["retries"] >= 1
        assert i.evidence["giveups"] == 0

    def test_round_trips_through_json(self, faulted_trace, tmp_path):
        path = tmp_path / "trace.json"
        faulted_trace.save(path)
        back = IOTrace.load(path)
        assert back.recovery_summary() == faulted_trace.recovery_summary()
        d = diagnose(back)
        assert findings(d, "retry-storm")
