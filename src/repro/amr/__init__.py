"""AMR cosmology substrate: grids, particles, hierarchy, refinement, solver."""

from .fields import BARYON_FIELDS, FIELD_DTYPE, FieldSet
from .grid import Grid
from .hierarchy import GridHierarchy
from .initial_conditions import (
    gaussian_random_field,
    make_initial_conditions,
    populate_grid_fields,
)
from .load_balance import assign_grids_lpt, assign_grids_round_robin
from .particles import N_ATTRIBUTES, PARTICLE_ARRAYS, ParticleSet
from .partition import (
    BlockPartition,
    block_bounds,
    processor_grid,
)
from .refinement import (
    REFINE_FACTOR,
    cluster_flags,
    flag_cells,
    refine_grid,
    refine_hierarchy,
)
from .solver import FLOPS_PER_CELL, evolve_grid, evolve_hierarchy

__all__ = [
    "BARYON_FIELDS",
    "FIELD_DTYPE",
    "FieldSet",
    "Grid",
    "GridHierarchy",
    "ParticleSet",
    "PARTICLE_ARRAYS",
    "N_ATTRIBUTES",
    "gaussian_random_field",
    "make_initial_conditions",
    "populate_grid_fields",
    "assign_grids_lpt",
    "assign_grids_round_robin",
    "BlockPartition",
    "block_bounds",
    "processor_grid",
    "REFINE_FACTOR",
    "cluster_flags",
    "flag_cells",
    "refine_grid",
    "refine_hierarchy",
    "FLOPS_PER_CELL",
    "evolve_grid",
    "evolve_hierarchy",
]
