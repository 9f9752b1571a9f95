"""The ENZO cosmology application and its checkpoint I/O driver.

Strategies are compositions resolved by name through
:mod:`repro.iostack.registry` (``registry.create("mpi-io", hints=...)``).
"""

from ..iostack.layouts import subgrid_path, top_grid_path
from .io_base import IOStats, IOStrategy, hierarchy_path
from .layout import TOP, ArrayExtent, CheckpointLayout
from .meta import GridMeta, HierarchyMeta, array_dtype
from .simulation import EnzoConfig, EnzoSimulation
from .sizing import WorkloadModel, table1
from .sort import parallel_sort_by_id
from .state import PartitionedState, RankState, hierarchies_equivalent, make_owner_map
from .validation import ValidationReport, compare_checkpoints, read_checkpoint_arrays

__all__ = [
    "IOStrategy",
    "IOStats",
    "hierarchy_path",
    "top_grid_path",
    "subgrid_path",
    "CheckpointLayout",
    "ArrayExtent",
    "TOP",
    "GridMeta",
    "HierarchyMeta",
    "array_dtype",
    "EnzoConfig",
    "EnzoSimulation",
    "WorkloadModel",
    "table1",
    "parallel_sort_by_id",
    "RankState",
    "PartitionedState",
    "ValidationReport",
    "compare_checkpoints",
    "read_checkpoint_arrays",
    "make_owner_map",
    "hierarchies_equivalent",
]
