"""Build a :class:`GridHierarchy` from a :class:`Scenario`.

The workload builders, the Enzo driver and the ``scenarios --check`` lint
construct hierarchies through :func:`build_hierarchy`, so a scenario's
refinement (threshold, ``max_level``, ``max_grid_size``) shapes every one
of them.

For the built-in ``AMR*`` scenarios the calls below reduce exactly to the
historical ``make_initial_conditions`` invocations (same thresholds, same
refinement kwargs, same RNG consumption order), which is what keeps the
pre-scenario regression digests byte-identical.
"""

from __future__ import annotations

from ..amr.hierarchy import GridHierarchy
from ..amr.initial_conditions import make_initial_conditions
from .model import Scenario

__all__ = ["build_hierarchy"]

#: Historical refinement kwargs of the two build flavors.
_INITIAL_KWARGS = {"min_efficiency": 0.05, "max_box_cells": 32768}
_DUMP_MAX_BOX_CELLS = 16384  # refine_grid's own default


def build_hierarchy(scenario: Scenario, *, initial: bool = False) -> GridHierarchy:
    """Construct the hierarchy a scenario describes.

    ``initial=False`` builds the evolved "dump" hierarchy every checkpoint
    experiment writes; ``initial=True`` builds the flatter initial-read
    hierarchy (more aggressive clustering, higher threshold) that models
    the cold start the paper's read phase measures.
    """
    scenario.validate()
    if initial:
        threshold = scenario.init_refine_threshold
        refine_kwargs = dict(_INITIAL_KWARGS)
    else:
        threshold = scenario.refine_threshold
        refine_kwargs = {}
    # max_level default (4) matches refine_hierarchy's own default, so
    # passing it unconditionally is behavior-neutral for the AMR* sizes.
    refine_kwargs["max_level"] = scenario.max_level
    if scenario.max_grid_size:
        # A child grid of a clustered box has edge 2*box_edge, so an edge
        # cap of max_grid_size bounds the box volume at (mgs/2)^3 cells.
        cap = max(1, scenario.max_grid_size // 2) ** 3
        refine_kwargs["max_box_cells"] = min(
            refine_kwargs.get("max_box_cells", _DUMP_MAX_BOX_CELLS), cap)
    return make_initial_conditions(
        scenario.root_dims,
        particles_per_cell=scenario.particles_per_cell,
        seed=scenario.seed,
        pre_refine=scenario.pre_refine,
        refine_threshold=threshold,
        refine_kwargs=refine_kwargs,
        nested_grids=scenario.nested_grids,
        must_refine=scenario.must_refine,
        deep_levels=scenario.deep_levels,
    )
