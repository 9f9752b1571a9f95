"""Benchmark workloads: named scenarios as ready-made hierarchies.

Every workload resolves through the :mod:`repro.scenarios` registry: the
paper's ``AMR64``/``AMR128``/``AMR256`` sizes (plus the laptop-scale
``AMR16``/``AMR32``) are built-in scenarios, and the gated parameter-file
scenarios (``foggie-nested``, ``nyx-plotfile``, ``flashx-particles``)
come through the same funnel.  Builders accept either a scenario name or
a :class:`~repro.scenarios.Scenario` object (e.g. one loaded from a
``--param-file``).

Every call builds a fresh hierarchy and keeps no reference to it: the
builders are deterministic, so two calls return the same bytes but never
the same object, and a caller that mutates its hierarchy in place
(``EnzoSimulation`` evolves it on rank 0) cannot reach the next run's
workload.  Nothing is cached, so a hierarchy lives exactly as long as its
caller holds it -- building is a fraction of a second even at ``AMR64``.
"""

from __future__ import annotations

import numpy as np

from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..amr.particles import ParticleSet
from ..amr.partition import BlockPartition, processor_grid
from ..scenarios import Scenario, build_hierarchy
from ..scenarios import registry as scenario_registry

__all__ = [
    "build_initial_workload",
    "build_scale_workload",
    "build_workload",
    "resolve_scenario",
    "workload_summary",
]


def resolve_scenario(problem: str | Scenario) -> Scenario:
    """A :class:`Scenario` from a registry name or a scenario object.

    Unknown names raise :class:`~repro.scenarios.ScenarioError` with the
    registry's "choose from ..." message.
    """
    if isinstance(problem, Scenario):
        return problem
    return scenario_registry.get(str(problem))


def build_workload(problem: str | Scenario = "AMR64") -> GridHierarchy:
    """The checkpoint-dump hierarchy for one scenario, freshly built.

    An evolved-looking hierarchy: a few dozen moderately-sized subgrids
    clustered around the overdensities, which is what a per-cycle data
    dump writes.  To vary a workload (another seed, say), pass
    ``dataclasses.replace(scenario, seed=s)``.
    """
    return build_hierarchy(resolve_scenario(problem))


def build_initial_workload(problem: str | Scenario = "AMR64") -> GridHierarchy:
    """The new-simulation *initial grids*: root + a few pre-refined subgrids.

    The paper's read experiments read these ("the top-grid and some
    pre-refined subgrids"), each partitioned among all processors.  The
    clustering parameters produce a handful of large patches rather than
    the many small grids of an evolved hierarchy.
    """
    return build_hierarchy(resolve_scenario(problem), initial=True)


#: Weak-scaling sizes: a rank's root block and its level-1 subgrid are
#: cubes of this many cells a side; each subgrid holds as many particles.
_SCALE_CELLS = 8


def build_scale_workload(nprocs: int) -> GridHierarchy:
    """A weak-scaling checkpoint hierarchy: per-rank work is constant in P.

    The root grid spans ``processor_grid(P) * 8`` cells, so every rank's
    (Block, Block, Block) piece is exactly ``8^3`` cells at any P, and each
    rank owns one level-1 subgrid of ``8^3`` cells and 8 particles refined
    inside its own block.  All data is deterministic (index-derived fills,
    regularly spaced particles) and cheap to build -- no random refinement
    pass -- which is what makes P=1024 hierarchies constructible in well
    under a second.  Like the scenario builders, builds afresh on every
    call.
    """
    pgrid = processor_grid(nprocs)
    dims = tuple(p * _SCALE_CELLS for p in pgrid)
    root = Grid.make_root(dims)
    ncells = root.ncells
    ramp = (np.arange(ncells, dtype=np.float64) % 997.0).reshape(dims)
    for i, name in enumerate(root.fields.names):
        root.fields[name] = ramp + float(i)
    # A few root particles per rank, regularly spread over the whole
    # domain so the irregular (position-based) partition stays exercised.
    nroot_p = 4 * nprocs
    frac = (np.arange(nroot_p, dtype=np.float64) + 0.5) / nroot_p
    positions = np.column_stack([
        frac,
        (frac * 7.0) % 1.0,
        (frac * 13.0) % 1.0,
    ])
    root.particles = ParticleSet(
        ids=np.arange(nroot_p, dtype=np.int64),
        positions=positions,
        velocities=positions * 0.5 - 0.25,
        mass=np.full(nroot_p, 1.0 / nroot_p),
        attributes=np.column_stack([frac, 1.0 - frac]),
    )
    hierarchy = GridHierarchy(root)
    part = BlockPartition(dims, nprocs)
    cw = root.cell_width
    refined_root_cells = _SCALE_CELLS // 2  # level-1 refinement factor 2
    base_id = nroot_p
    for rank in range(nprocs):
        starts, sizes = part.block_of(rank)
        span = [min(refined_root_cells, s) for s in sizes]
        left = root.left_edge + np.array(starts) * cw
        right = left + np.array(span) * cw
        sub = Grid(
            id=rank + 1,
            level=1,
            dims=tuple(2 * s for s in span),
            left_edge=left,
            right_edge=right,
            parent_id=root.id,
        )
        sramp = (
            np.arange(sub.ncells, dtype=np.float64) % 251.0
        ).reshape(sub.dims)
        for i, name in enumerate(sub.fields.names):
            sub.fields[name] = sramp * 0.5 + float(rank + i)
        npart = _SCALE_CELLS
        sfrac = (np.arange(npart, dtype=np.float64) + 0.5) / npart
        spos = left + (right - left) * np.column_stack([sfrac, sfrac, sfrac])
        sub.particles = ParticleSet(
            ids=base_id + rank * npart + np.arange(npart, dtype=np.int64),
            positions=spos,
            velocities=spos * 0.25,
            mass=np.full(npart, float(rank + 1)),
            attributes=np.column_stack([sfrac, sfrac * 2.0]),
        )
        hierarchy.add_grid(sub)
    return hierarchy


def workload_summary(hierarchy: GridHierarchy) -> dict:
    return {
        "grids": len(hierarchy),
        "max_level": hierarchy.max_level,
        "cells": hierarchy.total_cells(),
        "particles": hierarchy.total_particles(),
        "data_mb": hierarchy.total_data_nbytes() / 2**20,
    }
