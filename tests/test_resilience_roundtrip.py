"""Differential round-trip harness: faulted-but-retried dumps must be
bit-identical to fault-free dumps, across strategies, restart widths and
machine presets.

The harness always compares two complete runs (a differential test, not a
self-check): the same seeded hierarchy dumped fault-free on one file system
and dumped under injected faults + RetryPolicy on another.  Any divergence
-- a torn prefix the retry failed to overwrite, a manifest recording the
wrong checksum, a degraded collective landing bytes at the wrong offset --
shows up as an array mismatch or a corrupt report.
"""

from functools import partial

import pytest

from repro.amr import make_initial_conditions
from repro.enzo import (
    RankState,
    compare_checkpoints,
    hierarchies_equivalent,
)
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.resilience import RetryPolicy
from repro.topology import chiba_city_local, origin2000

from .conftest import make_machine

STRATEGIES = {
    name: partial(registry.create, name) for name in ("hdf4", "mpi-io", "hdf5")
}


@pytest.fixture(scope="module")
def hierarchy():
    return make_initial_conditions(
        (16, 16, 16), seed=11, pre_refine=1, particles_per_cell=0.5
    )


def dump(machine, hierarchy, strategy, base="ckpt", nprocs=None):
    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        return strategy.write_checkpoint(comm, state, base)

    return run_spmd(machine, program, nprocs=nprocs or machine.nprocs)


def restart(machine, strategy, base="ckpt", nprocs=None):
    def program(comm):
        state, _stats = strategy.read_checkpoint(comm, base)
        return state

    res = run_spmd(machine, program, nprocs=nprocs or machine.nprocs)
    return RankState.collect(res.results)


@pytest.mark.parametrize("name", list(STRATEGIES))
def test_faulted_dump_differentially_equal_to_clean_dump(hierarchy, name):
    """One injected write fault + retry: byte-for-byte the same checkpoint."""
    cls = STRATEGIES[name]
    clean = make_machine(4)
    dump(clean, hierarchy, cls(), base="clean")

    faulted = make_machine(4)
    faulted.fs.inject_fault("write", "ckpt", after=3)
    dump(faulted, hierarchy, cls(retry=RetryPolicy(max_retries=2)),
         base="ckpt")
    assert faulted.fs.counters.recoveries > 0  # the fault really fired

    report = compare_checkpoints(
        clean.fs, cls(), "clean", faulted.fs, cls(), "ckpt"
    )
    assert report.ok, report.summary()
    assert report.compared > 0


@pytest.mark.parametrize("name", list(STRATEGIES))
@pytest.mark.parametrize("restart_procs", [2, 6])
def test_faulted_dump_restarts_at_any_width(hierarchy, name, restart_procs):
    """P=4 dump under a torn-write fault, restart at P'=2 and P'=6."""
    cls = STRATEGIES[name]
    m = make_machine(4)
    m.fs.inject_fault("write", "ckpt", mode="torn", after=2,
                      torn_fraction=0.5)
    dump(m, hierarchy, cls(retry=RetryPolicy(max_retries=2)))
    rm = make_machine(restart_procs, fs=m.fs)
    rebuilt = restart(rm, cls())
    assert hierarchies_equivalent(rebuilt, hierarchy)


def test_cross_strategy_checkpoints_stay_identical_under_faults(hierarchy):
    """mpi-io written with retries vs hdf5 written clean: same arrays."""
    a = make_machine(4)
    a.fs.inject_fault("write", "ckpt", after=5)
    dump(a, hierarchy, registry.create("mpi-io", retry=RetryPolicy(max_retries=2)))
    b = make_machine(3)
    dump(b, hierarchy, registry.create("hdf5"))
    report = compare_checkpoints(
        a.fs, registry.create("mpi-io"), "ckpt", b.fs, registry.create("hdf5"), "ckpt"
    )
    assert report.ok, report.summary()


def test_different_seeds_are_distinguishable():
    """The differential harness has teeth: different data does mismatch."""
    h1 = make_initial_conditions((16, 16, 16), seed=1, pre_refine=0,
                                 particles_per_cell=0.25)
    h2 = make_initial_conditions((16, 16, 16), seed=2, pre_refine=0,
                                 particles_per_cell=0.25)
    a, b = make_machine(2), make_machine(2)
    dump(a, h1, registry.create("mpi-io"))
    dump(b, h2, registry.create("mpi-io"))
    report = compare_checkpoints(
        a.fs, registry.create("mpi-io"), "ckpt", b.fs, registry.create("mpi-io"), "ckpt"
    )
    assert not report.ok
    assert report.mismatched


@pytest.mark.parametrize("preset", [origin2000, chiba_city_local],
                         ids=["origin2000", "chiba-local"])
def test_roundtrip_with_retries_on_machine_presets(hierarchy, preset):
    """The resilience layer composes with the timed platform models."""
    m = preset(4)
    m.fs.inject_fault("write", "ckpt", after=4)
    strategy = registry.create("mpi-io", retry=RetryPolicy(max_retries=3))
    dump(m, hierarchy, strategy)
    rebuilt = restart(m, strategy)
    assert hierarchies_equivalent(rebuilt, hierarchy)


def test_retry_backoff_costs_simulated_time(hierarchy):
    """A retried dump finishes later than a clean one (backoff is charged)."""
    def timed_dump(arm_fault):
        m = make_machine(2)
        if arm_fault:
            m.fs.inject_fault("write", "ckpt", after=2)
        res = dump(m, hierarchy,
                   registry.create("mpi-io", retry=RetryPolicy(max_retries=2,
                                                   backoff_base=0.5)))
        return max(s.elapsed for s in res.results)

    assert timed_dump(True) >= timed_dump(False) + 0.49
