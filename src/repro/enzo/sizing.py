"""Analytic I/O-volume model (reproduces the paper's Table 1).

Table 1 reports "the amount of data read/written by the ENZO application
with three problem sizes" (AMR64/AMR128/AMR256).  The read volume is the
initial grids (top grid + pre-refined subgrids); the write volume is the
checkpoint dumps over the run.  Both follow directly from the workload
structure: per grid, ``len(BARYON_FIELDS)`` float64 arrays of the grid's
dims plus ``len(PARTICLE_ARRAYS)`` 1-D arrays over its particles.

The exact figures depend on run length and refinement depth (the paper does
not publish its cycle count); :func:`table1` therefore exposes those knobs
and the benchmark reports our configuration next to the paper's qualitative
shape: volumes grow ~8x per problem-size step and writes exceed reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..amr.particles import PARTICLE_ARRAYS
from .meta import array_dtype

__all__ = ["WorkloadModel", "table1"]


@dataclass
class WorkloadModel:
    """Structural model of an ENZO run's data volumes.

    ``refined_fraction``: fraction of the domain covered by level-(l+1)
    grids relative to level l (each refinement doubles resolution, so a
    refined region's cells are ``8 * fraction`` of its parent level's).
    """

    root_dims: tuple[int, int, int]
    particles_per_cell: float = 0.25
    levels: int = 2
    refined_fraction: float = 0.15
    ncycles: int = 3
    dump_every: int = 1

    @property
    def root_cells(self) -> int:
        return int(np.prod(self.root_dims))

    @property
    def nparticles(self) -> int:
        return int(self.root_cells * self.particles_per_cell)

    def level_cells(self, level: int) -> int:
        """Cells at a refinement level (level 0 = root)."""
        cells = self.root_cells
        for _ in range(level):
            cells = int(cells * self.refined_fraction * 8)
        return cells

    def hierarchy_bytes(self) -> int:
        """One full checkpoint: all levels' fields + all particles once."""
        field_bytes = sum(
            self.level_cells(l) * 8 * len(BARYON_FIELDS)
            for l in range(self.levels + 1)
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
        dumps = len(
            [c for c in range(1, self.ncycles + 1) if c % self.dump_every == 0]
        )
        return dumps * self.hierarchy_bytes()


def table1(
    problems: dict[str, tuple[int, int, int]] | None = None, **model_kw
) -> list[dict]:
    """Rows of Table 1: problem size, MB read, MB written."""
    if problems is None:
        problems = {
            "AMR64": (64, 64, 64),
            "AMR128": (128, 128, 128),
            "AMR256": (256, 256, 256),
        }
    rows = []
    for name, dims in problems.items():
        model = WorkloadModel(root_dims=dims, **model_kw)
        rows.append(
            {
                "problem": name,
                "read_mb": model.read_bytes() / 2**20,
                "write_mb": model.write_bytes() / 2**20,
            }
        )
    return rows
