"""Subgrid-to-processor assignment (Lan/Taylor/Bryan dynamic load balancing).

Two policies the paper's workflow uses:

* :func:`assign_grids_lpt` -- longest-processing-time greedy on data size,
  the moral equivalent of the dynamic load balancer of refs [5, 6]; used
  when distributing freshly refined subgrids;
* :func:`assign_grids_round_robin` -- "every processor reads the subgrids in
  a round-robin manner", the paper's restart-read policy.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .grid import Grid

__all__ = ["assign_grids_lpt", "assign_grids_round_robin"]


def assign_grids_lpt(grids: Sequence[Grid], nprocs: int) -> dict[int, int]:
    """Greedy LPT: heaviest grid to the least-loaded processor.

    Returns ``{grid_id: rank}``.  Deterministic: ties broken by rank, grids
    pre-sorted by (descending size, id).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    heap = [(0, rank) for rank in range(nprocs)]
    heapq.heapify(heap)
    out: dict[int, int] = {}
    for grid in sorted(grids, key=lambda g: (-g.data_nbytes, g.id)):
        load, rank = heapq.heappop(heap)
        out[grid.id] = rank
        heapq.heappush(heap, (load + grid.data_nbytes, rank))
    return out


def assign_grids_round_robin(grids: Sequence[Grid], nprocs: int) -> dict[int, int]:
    """Grid ``i`` (in id order) goes to rank ``i % nprocs``."""
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    ordered = sorted(grids, key=lambda g: g.id)
    return {g.id: i % nprocs for i, g in enumerate(ordered)}

