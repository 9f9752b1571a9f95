"""Shared fixtures: small machines for SPMD tests."""

import threading

import pytest

from repro.pfs import FileSystem
from repro.topology import Machine, Network


def make_machine(nprocs=4, ppn=1, latency=1e-6, bandwidth=1e9, fs=None):
    """A fast, almost-free machine for functional (non-timing) tests."""
    nodes = (nprocs + ppn - 1) // ppn
    m = Machine(
        name=f"test-{nprocs}x",
        nprocs=nprocs,
        procs_per_node=ppn,
        network=Network(nodes, latency=latency, bandwidth=bandwidth),
    )
    m.attach_fs(fs if fs is not None else FileSystem())
    return m


def sim_rank_threads():
    """Engine rank threads still alive (none may outlive ``Engine.run``)."""
    return [t for t in threading.enumerate() if t.name.startswith("sim-rank-")]


@pytest.fixture
def machine4():
    return make_machine(4)


@pytest.fixture
def machine8():
    return make_machine(8)
