"""Domain decomposition: (Block, Block, Block) grids + irregular particles.

The paper's Figure 4: baryon-field 3-D arrays are partitioned (Block, Block,
Block) over a 3-D processor grid; the 1-D particle arrays are partitioned by
which processor's sub-domain each particle's *position* falls in -- regular
versus irregular access patterns, the axis of the whole study.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid
from .particles import ParticleSet

__all__ = [
    "processor_grid",
    "block_bounds",
    "BlockPartition",
]


@lru_cache(maxsize=None)
def processor_grid(nprocs: int) -> tuple[int, int, int]:
    """Factor ``nprocs`` into a near-cubic 3-D processor grid (cached).

    Mirrors ``MPI_Dims_create``: dimensions as equal as possible, sorted
    descending.  Cached: ``BlockPartition.pgrid`` hits this on every
    ``coords_of``/``block_of`` and the divisor scan is O(nprocs).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    best = (nprocs, 1, 1)
    best_score = None
    for px in range(1, nprocs + 1):
        if nprocs % px:
            continue
        rest = nprocs // px
        for py in range(1, rest + 1):
            if rest % py:
                continue
            pz = rest // py
            dims = tuple(sorted((px, py, pz), reverse=True))
            score = dims[0] - dims[2]  # spread; smaller is more cubic
            if best_score is None or score < best_score:
                best, best_score = dims, score
    return best


def block_bounds(n: int, parts: int, index: int) -> tuple[int, int]:
    """Cells ``[lo, hi)`` of block ``index`` when ``n`` cells split ``parts`` ways."""
    if not 0 <= index < parts:
        raise ValueError(f"index {index} out of range [0, {parts})")
    base, rem = divmod(n, parts)
    lo = index * base + min(index, rem)
    hi = lo + base + (1 if index < rem else 0)
    return lo, hi


@dataclass(frozen=True)
class BlockPartition:
    """The (Block, Block, Block) decomposition of one grid over ``nprocs``.

    ``pgrid_override`` fixes the processor grid explicitly (used when a
    small grid cannot be split as finely as the communicator is wide);
    otherwise the near-cubic :func:`processor_grid` factorisation applies.
    """

    dims: tuple[int, int, int]  # global cell dims of the partitioned grid
    nprocs: int
    pgrid_override: tuple[int, int, int] | None = None

    @property
    def pgrid(self) -> tuple[int, int, int]:
        if self.pgrid_override is not None:
            return self.pgrid_override
        return processor_grid(self.nprocs)

    @classmethod
    def for_grid(cls, dims: tuple[int, int, int], nprocs: int) -> "BlockPartition":
        """A partition that never splits an axis finer than its cells.

        The resulting partition may use fewer ranks than ``nprocs`` (its
        ``nprocs`` attribute says how many actually receive a piece).
        """
        ideal = processor_grid(nprocs)
        # Axes sorted by extent get the larger factors.
        axis_order = sorted(range(3), key=lambda a: -dims[a])
        clamped = [1, 1, 1]
        for factor, axis in zip(sorted(ideal, reverse=True), axis_order):
            clamped[axis] = min(factor, dims[axis])
        used = int(np.prod(clamped))
        return cls(tuple(dims), used, pgrid_override=tuple(clamped))

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Processor-grid coordinates of ``rank`` (row-major)."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        return tuple(int(c) for c in np.unravel_index(rank, self.pgrid))

    def block_of(self, rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(starts, subsizes)`` of this rank's cell block in the global grid."""
        coords = self.coords_of(rank)
        starts, sizes = [], []
        for axis in range(3):
            lo, hi = block_bounds(self.dims[axis], self.pgrid[axis], coords[axis])
            starts.append(lo)
            sizes.append(hi - lo)
        return tuple(starts), tuple(sizes)

    def slices_of(self, rank: int) -> tuple[slice, slice, slice]:
        starts, sizes = self.block_of(rank)
        return tuple(slice(s, s + n) for s, n in zip(starts, sizes))

    def edges_of(self, rank: int, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Physical sub-domain boundaries of ``rank`` within ``grid``."""
        starts, sizes = self.block_of(rank)
        cw = grid.cell_width
        left = grid.left_edge + np.array(starts) * cw
        right = left + np.array(sizes) * cw
        return left, right

    def owner_of_cells(self, cells: np.ndarray) -> np.ndarray:
        """Rank owning each (N, 3) integer cell coordinate."""
        pgrid = self.pgrid
        coords = np.empty((len(cells), 3), dtype=np.int64)
        for axis in range(3):
            bounds = np.array(
                [block_bounds(self.dims[axis], pgrid[axis], i)[1]
                 for i in range(pgrid[axis])]
            )
            coords[:, axis] = np.searchsorted(bounds, cells[:, axis], side="right")
        return np.ravel_multi_index(
            (coords[:, 0], coords[:, 1], coords[:, 2]), pgrid
        )

    def extract(self, grid: Grid, rank: int) -> Grid:
        """Rank ``rank``'s piece of ``grid`` as a standalone grid patch.

        Fields are sliced (Block, Block, Block); particles are selected by
        position (the irregular pattern).
        """
        starts, sizes = self.block_of(rank)
        left, right = self.edges_of(rank, grid)
        piece = Grid(
            id=grid.id,
            level=grid.level,
            dims=sizes,
            left_edge=left,
            right_edge=right,
            parent_id=grid.parent_id,
        )
        sel = self.slices_of(rank)
        for name, arr in grid.fields.items():
            piece.fields[name] = np.ascontiguousarray(arr[sel])
        mask = _particle_mask(grid, self, rank)
        piece.particles = grid.particles.select(mask)
        return piece

    def reassemble(self, grid_template: Grid, pieces: list[Grid]) -> Grid:
        """Combine per-rank pieces back into a single grid.

        Particles are sorted by ID, matching the paper: "the particles and
        their associated data arrays are sorted in the original order in
        which the particles were initially read".
        """
        if len(pieces) != self.nprocs:
            raise ValueError(f"need {self.nprocs} pieces, got {len(pieces)}")
        combined = Grid(
            id=grid_template.id,
            level=grid_template.level,
            dims=self.dims,
            left_edge=grid_template.left_edge.copy(),
            right_edge=grid_template.right_edge.copy(),
            parent_id=grid_template.parent_id,
        )
        for rank, piece in enumerate(pieces):
            sel = self.slices_of(rank)
            for name in combined.fields:
                combined.fields[name][sel] = piece.fields[name]
        combined.particles = ParticleSet.concat(
            [p.particles for p in pieces]
        ).sort_by_id()
        return combined


def _particle_mask(grid: Grid, part: BlockPartition, rank: int) -> np.ndarray:
    """Which of ``grid``'s particles land in ``rank``'s sub-domain."""
    if len(grid.particles) == 0:
        return np.zeros(0, dtype=bool)
    cells = grid.cell_of(grid.particles.positions)
    owners = part.owner_of_cells(cells)
    return owners == rank

