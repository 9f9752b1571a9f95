"""Distributed simulation state as one rank sees it.

The paper's decomposition (Section 2.2, Figure 3): the *top grid* is
(Block, Block, Block)-partitioned so each rank holds one spatial piece of
its fields plus the particles inside that piece; *subgrids* are whole grids
assigned to ranks by the load balancer.

:class:`RankState` is what an I/O strategy writes from / reconstructs into.
``from_hierarchy`` derives a rank's state from a (replicated) global
hierarchy; ``collect`` reassembles a global hierarchy from all ranks' states
(used by restart verification and by the driver between runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..amr.grid import Grid
from ..amr.hierarchy import GridHierarchy
from ..amr.load_balance import assign_grids_lpt, assign_grids_round_robin
from ..amr.partition import BlockPartition
from .meta import HierarchyMeta

__all__ = [
    "RankState",
    "PartitionedState",
    "make_owner_map",
    "hierarchies_equivalent",
]


def hierarchies_equivalent(a: GridHierarchy, b: GridHierarchy) -> bool:
    """Data equality up to particle ordering within each grid.

    Checkpoint round-trips preserve every byte of field data and every
    particle, but particle *order* within a grid is only canonical (sorted
    by ID) after a dump+restart, so comparisons are order-insensitive.
    """
    ids_a = sorted(g.id for g in a.grids())
    ids_b = sorted(g.id for g in b.grids())
    if ids_a != ids_b:
        return False
    for gid in ids_a:
        ga, gb = a[gid], b[gid]
        if ga.dims != gb.dims or ga.level != gb.level:
            return False
        if not np.allclose(ga.left_edge, gb.left_edge) or not np.allclose(
            ga.right_edge, gb.right_edge
        ):
            return False
        if not ga.fields.equal(gb.fields):
            return False
        if not ga.particles.equal_as_sets(gb.particles):
            return False
    return True


def make_owner_map(
    hierarchy_or_meta, nprocs: int, policy: str = "lpt"
) -> dict[int, int]:
    """Assign subgrids to ranks.  ``policy``: 'lpt' or 'round_robin'.

    The paper uses load balancing during evolution and round-robin at
    restart read.
    """
    if isinstance(hierarchy_or_meta, HierarchyMeta):
        # The load balancers need only ``.id`` and ``.data_nbytes``.
        grids = [hierarchy_or_meta[g] for g in hierarchy_or_meta.subgrid_ids()]
    else:
        grids = hierarchy_or_meta.subgrids()
    if policy == "lpt":
        return assign_grids_lpt(grids, nprocs)
    if policy == "round_robin":
        return assign_grids_round_robin(grids, nprocs)
    raise ValueError(f"unknown policy {policy!r}")


@dataclass
class RankState:
    """One rank's share of the simulation data."""

    rank: int
    nprocs: int
    meta: HierarchyMeta
    partition: BlockPartition
    top_piece: Grid
    subgrids: dict[int, Grid] = field(default_factory=dict)
    owner: dict[int, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_hierarchy(
        cls,
        hierarchy: GridHierarchy,
        rank: int,
        nprocs: int,
        *,
        owner: dict[int, int] | None = None,
    ) -> "RankState":
        """Derive rank ``rank``'s state from a full hierarchy; subgrids go
        to their owners in ``owner``, by default the load-balanced (LPT)
        assignment the paper uses during evolution."""
        meta = HierarchyMeta.from_hierarchy(hierarchy)
        partition = BlockPartition(hierarchy.root.dims, nprocs)
        top_piece = partition.extract(hierarchy.root, rank)
        if owner is None:
            owner = make_owner_map(hierarchy, nprocs)
        subgrids = {
            gid: hierarchy[gid] for gid, r in owner.items() if r == rank
        }
        return cls(rank, nprocs, meta, partition, top_piece, subgrids, dict(owner))

    # -- reassembly --------------------------------------------------------------

    @staticmethod
    def collect(states: list["RankState"]) -> GridHierarchy:
        """Rebuild the full hierarchy from every rank's state (host-side)."""
        if not states:
            raise ValueError("no states to collect")
        states = sorted(states, key=lambda s: s.rank)
        meta = states[0].meta
        part = states[0].partition
        root = part.reassemble(meta.root.shell(), [s.top_piece for s in states])
        hierarchy = GridHierarchy(root)
        # Insert subgrids parent-before-child (id order guarantees this for
        # grids created by refine_hierarchy; sort by level then id for safety).
        all_sub: dict[int, Grid] = {}
        for s in states:
            all_sub.update(s.subgrids)
        for gid in sorted(all_sub, key=lambda g: (all_sub[g].level, g)):
            src = all_sub[gid]
            # Fresh node (sharing the data arrays) so collect() never
            # mutates grids that may still belong to a live hierarchy.
            grid = Grid(
                id=src.id,
                level=src.level,
                dims=src.dims,
                left_edge=src.left_edge.copy(),
                right_edge=src.right_edge.copy(),
                fields=src.fields,
                particles=src.particles,
                parent_id=src.parent_id,
            )
            hierarchy.add_grid(grid)
        return hierarchy

    # -- summaries -------------------------------------------------------------------

    def my_cells(self) -> int:
        return self.top_piece.ncells + sum(
            g.ncells for g in self.subgrids.values()
        )

    def my_data_nbytes(self) -> int:
        return self.top_piece.data_nbytes + sum(
            g.data_nbytes for g in self.subgrids.values()
        )

    def equal(self, other: "RankState") -> bool:
        """Bit-exact data equality (top piece order-normalised particles)."""
        if self.rank != other.rank or self.nprocs != other.nprocs:
            return False
        if self.meta != other.meta:
            return False
        if sorted(self.subgrids) != sorted(other.subgrids):
            return False
        a, b = self.top_piece, other.top_piece
        if not (
            a.fields.equal(b.fields) and a.particles.equal_as_sets(b.particles)
        ):
            return False
        return all(
            self.subgrids[g].fields.equal(other.subgrids[g].fields)
            and self.subgrids[g].particles.equal_as_sets(
                other.subgrids[g].particles
            )
            for g in self.subgrids
        )


@dataclass
class PartitionedState:
    """The new-simulation read result: *every* grid partitioned.

    The paper (Section 2.2): "processor 0 reads in all initial grids
    including the top-grid and some pre-refined subgrids.  Each grid is,
    then, evenly partitioned among all processors."  ``pieces`` maps a grid
    id (the root's included) to this rank's piece -- possibly ``None`` when
    the grid is too small to give every rank a block.
    """

    rank: int
    nprocs: int
    meta: HierarchyMeta
    pieces: dict = field(default_factory=dict)  # grid_id -> Grid piece | None
    partitions: dict = field(default_factory=dict)  # grid_id -> BlockPartition

    @staticmethod
    def collect(states: list["PartitionedState"]) -> GridHierarchy:
        """Reassemble the full hierarchy from every rank's pieces."""
        if not states:
            raise ValueError("no states to collect")
        states = sorted(states, key=lambda s: s.rank)
        meta = states[0].meta
        full: dict[int, Grid] = {}
        for gid in sorted(g.id for g in meta.grids()):
            part = states[0].partitions[gid]
            pieces = [states[r].pieces[gid] for r in range(part.nprocs)]
            if any(p is None for p in pieces):
                raise ValueError(f"missing pieces for grid {gid}")
            full[gid] = part.reassemble(meta[gid].shell(), pieces)
        hierarchy = GridHierarchy(full[meta.root_id])
        for gid in sorted(full, key=lambda i: (full[i].level, i)):
            if gid == meta.root_id:
                continue
            grid = full[gid]
            grid.child_ids = []
            hierarchy.add_grid(grid)
        return hierarchy

    def my_data_nbytes(self) -> int:
        return sum(p.data_nbytes for p in self.pieces.values() if p is not None)
