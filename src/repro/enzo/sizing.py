"""Analytic I/O-volume model (reproduces the paper's Table 1).

Table 1 reports "the amount of data read/written by the ENZO application
with three problem sizes" (AMR64/AMR128/AMR256).  The read volume is the
initial grids (top grid + pre-refined subgrids); the write volume is the
checkpoint dumps over the run.  Both follow directly from the workload
structure: per grid, ``len(BARYON_FIELDS)`` float64 arrays of the grid's
dims plus ``len(PARTICLE_ARRAYS)`` 1-D arrays over its particles.

The exact figures depend on run length and refinement depth (the paper does
not publish its cycle count); :class:`WorkloadModel` states ours as
constants and :func:`table1` reports it next to the paper's qualitative
shape: volumes grow ~8x per problem-size step and writes exceed reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..amr.particles import PARTICLE_ARRAYS
from ..scenarios import registry as scenario_registry
from .meta import array_dtype

__all__ = ["WorkloadModel", "table1"]

#: The paper's Table 1 problem sizes (scenario names).
TABLE1_PROBLEMS = ("AMR64", "AMR128", "AMR256")


@dataclass
class WorkloadModel:
    """Structural model of an ENZO run's data volumes.

    ``REFINED_FRACTION``: fraction of the domain covered by level-(l+1)
    grids relative to level l (each refinement doubles resolution, so a
    refined region's cells are ``8 * fraction`` of its parent level's).
    The run is ``NCYCLES`` cycles with a checkpoint after each.
    """

    root_dims: tuple[int, int, int]

    PARTICLES_PER_CELL = 0.25
    LEVELS = 2
    REFINED_FRACTION = 0.15
    NCYCLES = 3

    @property
    def root_cells(self) -> int:
        return int(np.prod(self.root_dims))

    @property
    def nparticles(self) -> int:
        return int(self.root_cells * self.PARTICLES_PER_CELL)

    def level_cells(self, level: int) -> int:
        """Cells at a refinement level (level 0 = root)."""
        cells = self.root_cells
        for _ in range(level):
            cells = int(cells * self.REFINED_FRACTION * 8)
        return cells

    def hierarchy_bytes(self) -> int:
        """One full checkpoint: all levels' fields + all particles once."""
        field_bytes = sum(
            self.level_cells(l) * 8 * len(BARYON_FIELDS)
            for l in range(self.LEVELS + 1)
        )
        particle_bytes = sum(
            self.nparticles * array_dtype(a).itemsize for a in PARTICLE_ARRAYS
        )
        return field_bytes + particle_bytes

    def read_bytes(self) -> int:
        """Initial read: root grid + pre-refined subgrids (one level)."""
        field_bytes = sum(
            self.level_cells(l) * 8 * len(BARYON_FIELDS) for l in range(2)
        )
        particle_bytes = sum(
            self.nparticles * array_dtype(a).itemsize for a in PARTICLE_ARRAYS
        )
        return field_bytes + particle_bytes

    def write_bytes(self) -> int:
        """All checkpoint dumps over the run."""
        return self.NCYCLES * self.hierarchy_bytes()


def table1() -> list[dict]:
    """Rows of Table 1: problem size, MB read, MB written."""
    rows = []
    for name in TABLE1_PROBLEMS:
        model = WorkloadModel(root_dims=scenario_registry.get(name).root_dims)
        rows.append(
            {
                "problem": name,
                "read_mb": model.read_bytes() / 2**20,
                "write_mb": model.write_bytes() / 2**20,
            }
        )
    return rows
