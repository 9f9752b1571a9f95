"""Shared fixtures: small machines for SPMD tests."""

import gc
import threading
import tracemalloc

import numpy as np
import pytest

from repro.amr import Grid, GridHierarchy, ParticleSet
from repro.amr.particles import N_ATTRIBUTES
from repro.iostack import registry
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


def runnable_strategies():
    """Every registered composition, minus what ``registry.check_filesystem``
    rejects on :func:`make_machine`'s file system -- nothing hand-picked."""
    fs = FileSystem()
    names = []
    for name in registry.names():
        try:
            registry.check_filesystem(name, fs)
        except ValueError:
            continue
        names.append(name)
    return names


def edge_case_hierarchy():
    """A hierarchy that reaches every empty case of the array protocol.

    Particles in the top grid (so its sorted slices are real), a subgrid
    with particles, a subgrid with none, a ``(1, 1, 2)`` subgrid that
    ``BlockPartition.for_grid`` cuts into fewer blocks than there are ranks
    (ranks beyond them hold no block and read empty slices), and a level-2
    grid.
    """
    rng = np.random.default_rng(22)
    next_particle = [0]

    def grid(gid, level, dims, left, right, nparticles, parent_id=None):
        g = Grid(id=gid, level=level, dims=dims, left_edge=left,
                 right_edge=right, parent_id=parent_id)
        for name in g.fields:
            g.fields[name] = rng.random(dims)
        ids = rng.permutation(nparticles) + next_particle[0]
        next_particle[0] += nparticles
        span = g.right_edge - g.left_edge
        g.particles = ParticleSet(
            ids, g.left_edge + rng.random((nparticles, 3)) * span,
            rng.random((nparticles, 3)), rng.random(nparticles),
            rng.random((nparticles, N_ATTRIBUTES)),
        )
        return g

    h = GridHierarchy(grid(0, 0, (8, 8, 8), (0, 0, 0), (1, 1, 1), 37))
    h.add_grid(grid(1, 1, (6, 4, 4), (0, 0, 0), (0.375, 0.25, 0.25), 21, 0))
    h.add_grid(grid(2, 1, (4, 4, 4), (0.5, 0.5, 0.5), (0.75, 0.75, 0.75), 0, 0))
    h.add_grid(grid(3, 1, (1, 1, 2), (0.75, 0, 0), (0.8125, 0.0625, 0.125), 3, 0))
    h.add_grid(grid(4, 2, (4, 2, 2), (0, 0, 0), (0.125, 0.0625, 0.0625), 5, 1))
    return h


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
