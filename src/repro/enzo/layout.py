"""Shared-checkpoint-file layout.

The paper's optimisation 3.2.2 ("Making Use of Other Metadata"): since grid
accesses follow a fixed array order and the hierarchy metadata is
replicated, *all grids can be written into a single shared file* whose
layout every rank computes identically with zero communication.

Layout (byte offsets ascending)::

    top-grid baryon fields, canonical order (global 3-D arrays)
    top-grid particle arrays, canonical order (global 1-D arrays, sorted by id)
    per subgrid (id order): its baryon fields, then its particle arrays

The metadata itself goes into a ``<base>.hierarchy`` sidecar file (as real
ENZO does), written by rank 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..amr.particles import PARTICLE_ARRAYS
from .meta import HierarchyMeta, array_dtype

__all__ = ["ArrayExtent", "CheckpointLayout", "TOP"]

#: Pseudo grid-id key for the top grid's arrays.
TOP = "top"


@dataclass(frozen=True)
class ArrayExtent:
    """Where one named array of one grid lives in the shared file."""

    offset: int
    dtype: np.dtype
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return math.prod(self.shape) * self.dtype.itemsize

    @property
    def end(self) -> int:
        return self.offset + self.nbytes


class CheckpointLayout:
    """Deterministic mapping (grid key, array name) -> :class:`ArrayExtent`."""

    def __init__(self, meta: HierarchyMeta):
        self.meta = meta
        self._extents: dict[tuple, ArrayExtent] = {}
        cursor = 0
        root = meta.root
        for name in BARYON_FIELDS:
            cursor = self._add(
                (TOP, "field", name), cursor, np.dtype(np.float64), root.dims
            )
        for name in PARTICLE_ARRAYS:
            cursor = self._add(
                (TOP, "particle", name), cursor, array_dtype(name),
                (root.nparticles,),
            )
        for gid in meta.subgrid_ids():
            g = meta[gid]
            for name in BARYON_FIELDS:
                cursor = self._add(
                    (gid, "field", name), cursor, np.dtype(np.float64), g.dims
                )
            for name in PARTICLE_ARRAYS:
                cursor = self._add(
                    (gid, "particle", name), cursor, array_dtype(name),
                    (g.nparticles,),
                )
        self.total_nbytes = cursor

    def _add(self, key, cursor, dtype, shape) -> int:
        ext = ArrayExtent(cursor, dtype, tuple(int(s) for s in shape))
        self._extents[key] = ext
        return ext.end

    def extent(self, grid_key, array_name: str, kind: str = "field") -> ArrayExtent:
        """Extent of one array.

        ``grid_key`` is :data:`TOP` or a grid id; ``kind`` is ``"field"``
        (baryon field) or ``"particle"`` (the two namespaces share names
        like ``velocity_x``).
        """
        return self._extents[(grid_key, kind, array_name)]

    def keys(self):
        return self._extents.keys()

    def __len__(self) -> int:
        return len(self._extents)
