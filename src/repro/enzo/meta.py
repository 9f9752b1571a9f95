"""Hierarchy metadata: what every processor knows about every grid.

The paper (Section 2.2): "The hierarchy data structure is maintained on all
processors and contains grids metadata.  Each node of this structure points
to the real data of the grid."  The I/O strategies exploit exactly this:
because geometry, dimensions and particle counts of every grid are known
everywhere, every rank can compute an identical shared-file layout with no
communication.

ENZO keeps this in the ``.hierarchy`` sidecar file; so do we (serialized
with a small stable binary encoding via pickle of plain dicts).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..amr.particles import PARTICLE_ARRAYS

__all__ = ["GridMeta", "HierarchyMeta", "array_dtype"]


def array_dtype(array_name: str) -> np.dtype:
    """Storage dtype of a named per-grid array."""
    if array_name == "particle_id":
        return np.dtype(np.int64)
    return np.dtype(np.float64)


@dataclass(frozen=True)
class GridMeta:
    """Immutable metadata of one grid."""

    id: int
    level: int
    dims: tuple[int, int, int]
    left_edge: tuple[float, float, float]
    right_edge: tuple[float, float, float]
    nparticles: int
    parent_id: int | None

    @property
    def ncells(self) -> int:
        return int(np.prod(self.dims))

    def field_nbytes(self) -> int:
        return self.ncells * 8 * len(BARYON_FIELDS)

    def particle_nbytes(self) -> int:
        return sum(
            self.nparticles * array_dtype(a).itemsize for a in PARTICLE_ARRAYS
        )

    @property
    def data_nbytes(self) -> int:
        return self.field_nbytes() + self.particle_nbytes()

    def shell(self) -> Grid:
        """An empty grid with the geometry this metadata records."""
        return Grid(
            id=self.id,
            level=self.level,
            dims=self.dims,
            left_edge=np.array(self.left_edge),
            right_edge=np.array(self.right_edge),
            parent_id=self.parent_id,
        )


class HierarchyMeta:
    """The replicated metadata for a whole hierarchy."""

    def __init__(self, grids: list[GridMeta], root_id: int):
        self._grids = {g.id: g for g in grids}
        self.root_id = root_id
        if root_id not in self._grids:
            raise ValueError("root grid missing from metadata")

    @classmethod
    def from_hierarchy(cls, hierarchy: GridHierarchy) -> "HierarchyMeta":
        grids = [
            GridMeta(
                id=g.id,
                level=g.level,
                dims=g.dims,
                left_edge=tuple(g.left_edge),
                right_edge=tuple(g.right_edge),
                nparticles=len(g.particles),
                parent_id=g.parent_id,
            )
            for g in hierarchy.grids()
        ]
        return cls(grids, hierarchy.root_id)

    # -- access ------------------------------------------------------------

    @property
    def root(self) -> GridMeta:
        return self._grids[self.root_id]

    def __getitem__(self, grid_id: int) -> GridMeta:
        return self._grids[grid_id]

    def __len__(self) -> int:
        return len(self._grids)

    def __contains__(self, grid_id: int) -> bool:
        return grid_id in self._grids

    def grids(self) -> list[GridMeta]:
        """All grids in id order."""
        return [self._grids[g] for g in sorted(self._grids)]

    def subgrid_ids(self) -> list[int]:
        return [g for g in sorted(self._grids) if g != self.root_id]

    def total_data_nbytes(self) -> int:
        return sum(g.data_nbytes for g in self.grids())

    # -- serialisation ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "root_id": self.root_id,
            "grids": [
                {
                    "id": g.id,
                    "level": g.level,
                    "dims": g.dims,
                    "left_edge": g.left_edge,
                    "right_edge": g.right_edge,
                    "nparticles": g.nparticles,
                    "parent_id": g.parent_id,
                }
                for g in self.grids()
            ],
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "HierarchyMeta":
        payload = pickle.loads(raw)
        grids = [GridMeta(**g) for g in payload["grids"]]
        return cls(grids, payload["root_id"])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HierarchyMeta)
            and self.root_id == other.root_id
            and self.grids() == other.grids()
        )
