"""The grid hierarchy: a tree of increasingly refined patches (paper Fig. 1).

The hierarchy *metadata* (geometry, sizes, parentage of every grid) is
maintained on all processors -- the paper points this out explicitly, and
the parallel I/O strategies rely on it to compute identical file layouts
everywhere.  The grid *data* (fields, particles) is distributed.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .grid import Grid

__all__ = ["GridHierarchy"]


class GridHierarchy:
    """A tree of grids indexed by id, rooted at grid 0's level."""

    def __init__(self, root: Grid):
        if root.parent_id is not None:
            raise ValueError("root grid cannot have a parent")
        self._grids: dict[int, Grid] = {root.id: root}
        self.root_id = root.id
        self._next_id = root.id + 1

    # -- access ----------------------------------------------------------

    @property
    def root(self) -> Grid:
        return self._grids[self.root_id]

    def __getitem__(self, grid_id: int) -> Grid:
        return self._grids[grid_id]

    def __contains__(self, grid_id: int) -> bool:
        return grid_id in self._grids

    def __len__(self) -> int:
        return len(self._grids)

    def grids(self) -> Iterator[Grid]:
        """All grids in id order (deterministic traversal)."""
        for gid in sorted(self._grids):
            yield self._grids[gid]

    def level_grids(self, level: int) -> list[Grid]:
        return [g for g in self.grids() if g.level == level]

    def subgrids(self) -> list[Grid]:
        """Every grid except the root, in id order."""
        return [g for g in self.grids() if g.id != self.root_id]

    @property
    def max_level(self) -> int:
        return max(g.level for g in self._grids.values())

    def children(self, grid_id: int) -> list[Grid]:
        return [self._grids[c] for c in self._grids[grid_id].child_ids]

    # -- construction ---------------------------------------------------------

    def new_grid_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def add_grid(self, grid: Grid) -> Grid:
        """Insert a grid; its parent must already be present."""
        if grid.id in self._grids:
            raise ValueError(f"grid id {grid.id} already in hierarchy")
        if grid.parent_id is None:
            raise ValueError("non-root grids need a parent")
        parent = self._grids.get(grid.parent_id)
        if parent is None:
            raise ValueError(f"parent {grid.parent_id} not in hierarchy")
        if grid.level != parent.level + 1:
            raise ValueError(
                f"grid level {grid.level} must be parent level + 1 "
                f"({parent.level + 1})"
            )
        eps = 1e-12
        if (grid.left_edge < parent.left_edge - eps).any() or (
            grid.right_edge > parent.right_edge + eps
        ).any():
            raise ValueError("child grid extends outside its parent")
        self._grids[grid.id] = grid
        parent.child_ids.append(grid.id)
        self._next_id = max(self._next_id, grid.id + 1)
        return grid

    def copy(self) -> "GridHierarchy":
        """Deep copy of the whole tree (grids, fields, particles).

        For a caller that keeps one hierarchy and hands out twins that may
        be mutated (``EnzoSimulation`` evolves its hierarchy in place on
        rank 0); perfbench's ``Inputs`` copies its reseeded masters so.
        The workload builders do not copy: they build afresh.
        """
        out = GridHierarchy(self.root.copy())
        for grid in self.grids():
            if grid.id != self.root_id:
                out._grids[grid.id] = grid.copy()
        out._next_id = self._next_id
        return out

    # -- summaries ------------------------------------------------------------------

    def total_cells(self) -> int:
        return sum(g.ncells for g in self._grids.values())

    def total_particles(self) -> int:
        return sum(len(g.particles) for g in self._grids.values())

    def total_data_nbytes(self) -> int:
        return sum(g.data_nbytes for g in self._grids.values())

    def metadata(self) -> list[dict]:
        """Hierarchy metadata for all grids (what every processor holds)."""
        return [g.metadata() for g in self.grids()]

    def describe(self) -> str:
        lines = [f"hierarchy: {len(self)} grids, max level {self.max_level}"]
        for level in range(self.max_level + 1):
            grids = self.level_grids(level)
            cells = sum(g.ncells for g in grids)
            parts = sum(len(g.particles) for g in grids)
            lines.append(
                f"  level {level}: {len(grids)} grids, {cells} cells, "
                f"{parts} particles"
            )
        return "\n".join(lines)

    def equal(self, other: "GridHierarchy") -> bool:
        """Bit-exact equality of all grids."""
        if sorted(self._grids) != sorted(other._grids):
            return False
        return all(self[g].equal(other[g]) for g in self._grids)
