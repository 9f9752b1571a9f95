"""Crash-consistency matrix: a fault at *every* write index of a dump must
either be absorbed (retry -> bit-identical restart) or fail loudly (no
retry -> the dump aborts and the restart refuses the torn checkpoint).

"Silently restarts from corrupt data" is the one outcome the manifest
layer exists to make impossible, so the matrix asserts recover-or-raise at
each index rather than sampling a few.
"""

import pytest

from repro.amr import make_initial_conditions
from repro.core import trace_filesystem
from repro.enzo import RankState, hierarchies_equivalent
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.pfs import InjectedIOError
from repro.resilience import ManifestVerificationError, RetryPolicy
from repro.sim import RankFailedError

from .conftest import make_machine

NPROCS = 2


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=3, pre_refine=0, particles_per_cell=0.25
    )


def write_program(hierarchy, strategy, base="ckpt"):
    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        return strategy.write_checkpoint(comm, state, base)

    return program


def read_program(strategy, base="ckpt"):
    def program(comm):
        state, _stats = strategy.read_checkpoint(comm, base)
        return state

    return program


@pytest.fixture(scope="module")
def write_count(hierarchy):
    """Data-write count of a clean dump (sidecar + data + manifest)."""
    m = make_machine(NPROCS)
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io")))
    return m.fs.counters.writes


def test_the_matrix_is_not_trivial(write_count):
    assert write_count >= 10


@pytest.mark.slow
@pytest.mark.regression
def test_fault_at_every_write_index_with_retry_recovers(
    hierarchy, write_count
):
    """Retry absorbs a one-shot fault no matter which write it hits."""
    for index in range(write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=2))
        run_spmd(m, write_program(hierarchy, strategy))
        assert m.fs.counters.recoveries > 0, f"index {index}: never fired"
        res = run_spmd(m, read_program(registry.create("mpi-io")))
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy), f"index {index}"


@pytest.mark.slow
@pytest.mark.regression
def test_fault_at_every_write_index_without_retry_fails_loudly(
    hierarchy, write_count
):
    """No retry: the dump aborts, and the restart never returns data."""
    for index in range(write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, write_program(hierarchy, registry.create("mpi-io")))
        assert isinstance(ei.value.__cause__, InjectedIOError), f"index {index}"
        # The interrupted dump must not be restartable: whatever is on
        # disk (missing sidecar, torn data, absent manifest) raises.
        with pytest.raises(RankFailedError):
            run_spmd(m, read_program(registry.create("mpi-io")))


def test_torn_write_acceptance_scenario(hierarchy):
    """The issue's headline scenario, end to end:

    a torn write mid-dump is retried (same bytes, same offsets, healing
    the torn prefix), the trace records the recovery, and the restart is
    bit-identical to the original state.
    """
    m = make_machine(NPROCS)
    trace = trace_filesystem(m.fs)
    m.fs.inject_fault("write", "ckpt", mode="torn", after=4,
                      torn_fraction=0.5)
    strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=2))
    run_spmd(m, write_program(hierarchy, strategy))

    summary = trace.recovery_summary()
    assert summary.get("retry", 0) >= 1
    assert summary.get("recovered", 0) >= 1
    assert summary.get("giveup", 0) == 0
    assert all(e.attempt >= 1 for e in trace.recoveries("retry"))

    res = run_spmd(m, read_program(registry.create("mpi-io")))
    trace.detach()
    rebuilt = RankState.collect(res.results)
    assert hierarchies_equivalent(rebuilt, hierarchy)


def test_exhausted_retries_leave_a_rejected_checkpoint(hierarchy):
    """A persistent fault outlives the budget: giveup in the trace, and
    the restart raises with ManifestVerificationError as the cause --
    never a silently reconstructed hierarchy."""
    m = make_machine(NPROCS)
    trace = trace_filesystem(m.fs)
    # min_nbytes spares the small hierarchy sidecar so the restart gets
    # far enough to reach the manifest gate, which is the layer under test.
    m.fs.inject_fault("write", "ckpt", mode="persistent", min_nbytes=4096)
    strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=2))
    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, write_program(hierarchy, strategy))
    assert isinstance(ei.value.__cause__, InjectedIOError)
    assert trace.recovery_summary().get("giveup", 0) >= 1
    trace.detach()

    m.fs.clear_faults()
    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, read_program(registry.create("mpi-io")))
    assert isinstance(ei.value.__cause__, ManifestVerificationError)
    assert "no manifest" in str(ei.value.__cause__)


def test_torn_manifest_itself_is_rejected(hierarchy):
    """Tearing the commit record must read as 'dump never committed'."""
    m = make_machine(NPROCS)
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io")))
    # Corrupt the manifest in place: truncate it to half its bytes.
    f = m.fs.store.open("ckpt.manifest")
    f.truncate(f.size // 2)
    with pytest.raises(RankFailedError) as ei:
        run_spmd(m, read_program(registry.create("mpi-io")))
    assert isinstance(ei.value.__cause__, ManifestVerificationError)


# -- the async composition: faults injected mid-drain -----------------------
#
# With the background flush service, a write's failure is detected by the
# progress engine and deferred to retirement -- which happens at the flush
# barrier *before* the manifest commit.  The matrix below proves the same
# recover-or-fail-loudly contract holds when every data write is posted
# asynchronously.


@pytest.fixture(scope="module")
def async_write_count(hierarchy):
    m = make_machine(NPROCS)
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io-async")))
    return m.fs.counters.writes


@pytest.mark.slow
@pytest.mark.regression
def test_async_fault_at_every_write_index_with_retry_recovers(
    hierarchy, async_write_count
):
    """Background retries absorb a one-shot fault at any posted write."""
    for index in range(async_write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        strategy = registry.create(
            "mpi-io-async", retry=RetryPolicy(max_retries=2)
        )
        run_spmd(m, write_program(hierarchy, strategy))
        assert m.fs.counters.recoveries > 0, f"index {index}: never fired"
        res = run_spmd(m, read_program(registry.create("mpi-io")))
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy), f"index {index}"


@pytest.mark.slow
@pytest.mark.regression
def test_async_fault_at_every_write_index_without_retry_fails_loudly(
    hierarchy, async_write_count
):
    """No retry: the deferred error aborts at (or before) the flush
    barrier, the manifest is never committed, and the restart refuses."""
    for index in range(async_write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, write_program(hierarchy, registry.create("mpi-io-async")))
        assert isinstance(ei.value.__cause__, InjectedIOError), f"index {index}"
        with pytest.raises(RankFailedError):
            run_spmd(m, read_program(registry.create("mpi-io")))


# -- the Lustre cell: same contract on per-file stripe layouts ---------------


def make_lustre_machine():
    from repro.pfs.lustre import LustreFS

    fs = LustreFS(
        "lfs-crash",
        nosts=4,
        stripe_size=4096,
        stripe_count=2,
        disk_bandwidth=1e9,
        seek_time=0.0,
    )
    return make_machine(NPROCS, fs=fs)


@pytest.fixture(scope="module")
def lustre_write_count(hierarchy):
    m = make_lustre_machine()
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io")))
    return m.fs.counters.writes


@pytest.mark.slow
@pytest.mark.regression
def test_lustre_fault_at_every_write_index(hierarchy, lustre_write_count):
    """Recover-or-raise holds when stripes land on per-file OST layouts:
    with retry the restart is bit-identical, without it both the dump and
    the restart fail loudly."""
    for index in range(lustre_write_count):
        m = make_lustre_machine()
        m.fs.inject_fault("write", "ckpt", after=index)
        strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=2))
        run_spmd(m, write_program(hierarchy, strategy))
        assert m.fs.counters.recoveries > 0, f"index {index}: never fired"
        res = run_spmd(m, read_program(registry.create("mpi-io")))
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy), f"index {index}"

        m = make_lustre_machine()
        m.fs.inject_fault("write", "ckpt", after=index)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(m, write_program(hierarchy, registry.create("mpi-io")))
        assert isinstance(ei.value.__cause__, InjectedIOError), f"index {index}"
        with pytest.raises(RankFailedError):
            run_spmd(m, read_program(registry.create("mpi-io")))


# -- the scda composition: faults under the serial-equivalent format ---------
#
# scda adds header/padding writes and a CRC-carrying manifest on top of the
# raw shared-file session; the matrix proves a fault at *any* write index
# still ends in recover-or-refuse -- a torn header is detected at restart
# (ScdaHeaderError or the manifest gate), never silently parsed.


@pytest.fixture(scope="module")
def scda_write_count(hierarchy):
    m = make_machine(NPROCS)
    run_spmd(m, write_program(hierarchy, registry.create("mpi-io-scda")))
    return m.fs.counters.writes


@pytest.mark.slow
@pytest.mark.regression
def test_scda_fault_at_every_write_index_with_retry_recovers(
    hierarchy, scda_write_count
):
    for index in range(scda_write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        strategy = registry.create(
            "mpi-io-scda", retry=RetryPolicy(max_retries=2)
        )
        run_spmd(m, write_program(hierarchy, strategy))
        assert m.fs.counters.recoveries > 0, f"index {index}: never fired"
        res = run_spmd(m, read_program(registry.create("mpi-io-scda")))
        rebuilt = RankState.collect(res.results)
        assert hierarchies_equivalent(rebuilt, hierarchy), f"index {index}"


@pytest.mark.slow
@pytest.mark.regression
def test_scda_fault_at_every_write_index_without_retry_fails_loudly(
    hierarchy, scda_write_count
):
    for index in range(scda_write_count):
        m = make_machine(NPROCS)
        m.fs.inject_fault("write", "ckpt", after=index)
        with pytest.raises(RankFailedError) as ei:
            run_spmd(
                m, write_program(hierarchy, registry.create("mpi-io-scda"))
            )
        assert isinstance(ei.value.__cause__, InjectedIOError), f"index {index}"
        with pytest.raises(RankFailedError):
            run_spmd(m, read_program(registry.create("mpi-io-scda")))
