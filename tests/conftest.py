"""Shared fixtures: small machines for SPMD tests."""

import gc
import threading
import tracemalloc

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


class Traced:
    """``with Traced() as t: ...`` then ``t.held`` (bytes the block left
    allocated) and ``t.peak`` (the most it ever had), from ``tracemalloc``,
    which sees every numpy, ``bytes`` and ``bytearray`` allocation."""

    def __enter__(self):
        gc.collect()
        tracemalloc.start()
        self._before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc):
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        self.held, self.peak = held - self._before, peak - self._before


@pytest.fixture
def machine4():
    return make_machine(4)


@pytest.fixture
def machine8():
    return make_machine(8)
