"""Adaptive mesh refinement: flagging and grid generation.

Cells whose (baryon + dark-matter) density exceeds a threshold are flagged;
flagged regions are clustered into rectangular patches by a simplified
Berger--Rigoutsos algorithm (recursive bisection of inefficient bounding
boxes); each patch becomes a child grid at twice the spatial resolution,
with fields interpolated from the parent and the parent's particles inside
the patch moved down (ENZO keeps particles on the finest containing grid).
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .hierarchy import GridHierarchy
from .initial_conditions import populate_grid_fields  # noqa: F401 (re-export convenience)

__all__ = ["flag_cells", "cluster_flags", "refine_grid", "refine_hierarchy",
           "REFINE_FACTOR"]

REFINE_FACTOR = 2


def flag_cells(grid: Grid, overdensity_threshold: float) -> np.ndarray:
    """Boolean mask of cells needing refinement."""
    return grid.fields["density"] > overdensity_threshold


def cluster_flags(
    flags: np.ndarray,
    *,
    min_efficiency: float = 0.15,
    min_cells: int = 8,
    max_boxes: int = 4096,
    max_box_cells: int | None = 16384,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Cluster flagged cells into boxes (simplified Berger--Rigoutsos).

    Returns ``(lo, hi)`` cell-index boxes (hi exclusive).  A box is accepted
    when its flagged fraction reaches ``min_efficiency`` or it cannot be
    split further; otherwise it is bisected across its longest axis at the
    flag-signature minimum.  ``max_box_cells`` caps box volume (ENZO's
    MaximumSubgridSize): oversized boxes are split even when efficient,
    which keeps grids balanceable across processors.
    """
    boxes: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    if not flags.any():
        return boxes
    work = [_bounding_box(flags)]
    while work and len(boxes) + len(work) <= max_boxes:
        lo, hi = work.pop()
        sub = flags[tuple(slice(a, b) for a, b in zip(lo, hi))]
        total = sub.sum()
        if total == 0:
            continue
        volume = sub.size
        widths = [b - a for a, b in zip(lo, hi)]
        small_enough = max_box_cells is None or volume <= max_box_cells
        efficient = total / volume >= min_efficiency or max(widths) <= min_cells
        if efficient and small_enough:
            boxes.append((lo, hi))
            continue
        axis = int(np.argmax(widths))
        if efficient:
            # Splitting only for size: bisect (a dense box has a flat
            # signature, where the signature-minimum cut would shave
            # slivers and never converge).
            n = sub.shape[axis]
            cut = n // 2 if n >= 2 * min_cells else None
        else:
            cut = _best_cut(sub, axis, min_cells)
        if cut is None:
            boxes.append((lo, hi))
            continue
        lo1, hi1 = list(lo), list(hi)
        lo2, hi2 = list(lo), list(hi)
        hi1[axis] = lo[axis] + cut
        lo2[axis] = lo[axis] + cut
        for piece in ((tuple(lo1), tuple(hi1)), (tuple(lo2), tuple(hi2))):
            shrunk = _shrink_to_flags(flags, piece)
            if shrunk is not None:
                work.append(shrunk)
    boxes.extend(b for b in work)  # budget exhausted: accept remainder as-is
    return sorted(boxes)


def _bounding_box(flags: np.ndarray):
    idx = np.nonzero(flags)
    lo = tuple(int(a.min()) for a in idx)
    hi = tuple(int(a.max()) + 1 for a in idx)
    return lo, hi


def _shrink_to_flags(flags: np.ndarray, box):
    lo, hi = box
    sub = flags[tuple(slice(a, b) for a, b in zip(lo, hi))]
    if not sub.any():
        return None
    slo, shi = _bounding_box(sub)
    return (
        tuple(a + s for a, s in zip(lo, slo)),
        tuple(a + s for a, s in zip(lo, shi)),
    )


def _best_cut(sub: np.ndarray, axis: int, min_cells: int):
    """Cut index along ``axis`` at the signature minimum (None if too thin)."""
    n = sub.shape[axis]
    if n < 2 * min_cells:
        return None
    signature = sub.sum(axis=tuple(d for d in range(sub.ndim) if d != axis))
    interior = signature[min_cells : n - min_cells + 1]
    if len(interior) == 0:
        return None
    return min_cells + int(np.argmin(interior))


def refine_grid(
    hierarchy: GridHierarchy,
    grid: Grid,
    *,
    overdensity_threshold: float,
    min_efficiency: float = 0.15,
    max_boxes: int = 4096,
    max_box_cells: int | None = 16384,
) -> list[Grid]:
    """Create child grids under ``grid`` where it is over-dense."""
    flags = flag_cells(grid, overdensity_threshold)
    children: list[Grid] = []
    for lo, hi in cluster_flags(
        flags,
        min_efficiency=min_efficiency,
        max_boxes=max_boxes,
        max_box_cells=max_box_cells,
    ):
        cw = grid.cell_width
        left = grid.left_edge + np.array(lo) * cw
        right = grid.left_edge + np.array(hi) * cw
        dims = tuple((h - l) * REFINE_FACTOR for l, h in zip(lo, hi))
        child = Grid(
            id=hierarchy.new_grid_id(),
            level=grid.level + 1,
            dims=dims,
            left_edge=left,
            right_edge=right,
            parent_id=grid.id,
        )
        _interpolate_fields(grid, child, lo, hi)
        _move_particles_down(grid, child)
        hierarchy.add_grid(child)
        children.append(child)
    return children


def _interpolate_fields(parent: Grid, child: Grid, lo, hi) -> None:
    """Piecewise-constant prolongation of parent fields onto the child."""
    sel = tuple(slice(a, b) for a, b in zip(lo, hi))
    for name, arr in parent.fields.items():
        coarse = arr[sel]
        fine = coarse
        for axis in range(3):
            fine = np.repeat(fine, REFINE_FACTOR, axis=axis)
        child.fields[name] = fine


def _move_particles_down(parent: Grid, child: Grid) -> None:
    """Particles inside the child's domain belong to the child."""
    mask = child.contains_points(parent.particles.positions)
    if mask.any():
        child.particles = parent.particles.select(mask)
        parent.particles = parent.particles.select(~mask)


def refine_hierarchy(
    hierarchy: GridHierarchy,
    *,
    overdensity_threshold: float,
    max_level: int = 4,
    min_efficiency: float = 0.15,
    max_boxes: int = 4096,
    max_box_cells: int | None = 16384,
) -> list[Grid]:
    """Refine every current leaf grid below ``max_level``; returns new grids."""
    new: list[Grid] = []
    for grid in list(hierarchy.grids()):
        if grid.child_ids or grid.level >= max_level:
            continue
        new.extend(
            refine_grid(
                hierarchy,
                grid,
                overdensity_threshold=overdensity_threshold,
                min_efficiency=min_efficiency,
                max_boxes=max_boxes,
                max_box_cells=max_box_cells,
            )
        )
    return new

