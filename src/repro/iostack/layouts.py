"""Layout planners: where each grid's arrays land on storage.

The paper's bottom layer is the *access pattern / data placement* level:
regular blocked 3-D baryon fields versus irregular 1-D particle arrays
(Section 2.1), and whether the checkpoint is one shared file with derived
offsets (Section 3.2.2) or one file per grid (the original HDF4 dump).

A planner owns exactly that decision.  ``plan(meta)`` returns the layout
object the transport and format layers address through:

* :class:`SharedFileLayoutPlanner` -- every array gets a byte extent in a
  single shared file, computed by every rank from the replicated hierarchy
  metadata (:class:`repro.enzo.layout.CheckpointLayout`);
* :class:`FilePerGridLayoutPlanner` -- each grid gets its own file, named by
  :func:`top_grid_path` / :func:`subgrid_path`; offsets within a file are
  the format library's business.

Particle placement within an extent is the sample-sort block placement both
shared-file strategies use: rank *r* owns the contiguous ID-sorted slice
:func:`particle_block_range` gives.

This module imports nothing from :mod:`repro.enzo` at module level:
``repro.enzo``'s own ``__init__`` imports the path helpers from here.
"""

from __future__ import annotations

__all__ = [
    "FilePerGridLayoutPlanner",
    "SharedFileLayoutPlanner",
    "particle_block_range",
    "subgrid_path",
    "top_grid_path",
]


def top_grid_path(base: str) -> str:
    """The top-grid file of a file-per-grid checkpoint."""
    return f"{base}.grid0000"


def subgrid_path(base: str, gid: int) -> str:
    """The per-subgrid file of a file-per-grid checkpoint."""
    return f"{base}.grid{gid:04d}"


def particle_block_range(n_total: int, rank: int, nprocs: int) -> tuple[int, int]:
    """The contiguous ``[lo, hi)`` element slice rank ``rank`` owns of an
    ID-sorted particle array of ``n_total`` elements split over ``nprocs``."""
    lo = (n_total * rank) // nprocs
    hi = (n_total * (rank + 1)) // nprocs
    return lo, hi


class SharedFileLayoutPlanner:
    """One shared checkpoint file; extents derived from replicated metadata."""

    kind = "shared-file"

    def plan(self, meta):
        """Byte extents for every array: a ``CheckpointLayout``."""
        # Imported lazily: enzo.layout is an enzo submodule, and this module
        # must stay importable while the enzo package is mid-import.
        from ..enzo.layout import CheckpointLayout

        # The layout is a pure function of the metadata, and building it is
        # O(grids x arrays) -- memoize on the meta object so the weak-scaling
        # runner (which shares one replicated meta across all ranks) plans
        # once instead of P times.  Per-rank metas still plan independently.
        cached = getattr(meta, "_shared_layout_cache", None)
        if cached is None:
            cached = CheckpointLayout(meta)
            try:
                meta._shared_layout_cache = cached
            except (AttributeError, TypeError):  # frozen/slotted meta
                pass
        return cached


class FilePerGridLayoutPlanner:
    """One file per grid (the original ENZO dump); the plan is path naming."""

    kind = "file-per-grid"

    def plan(self, meta):
        return self

    def top_grid_path(self, base: str) -> str:
        return top_grid_path(base)

    def subgrid_path(self, base: str, gid: int) -> str:
        return subgrid_path(base, gid)
