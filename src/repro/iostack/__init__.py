"""The layered I/O stack: layout planners, transports, formats, registry.

The paper analyses ENZO's I/O as three independent levels -- data
placement, data movement, and data format -- and attributes HDF5's
slowdown to bad interactions *between* levels rather than to any single
one.  This package makes the levels explicit:

* :mod:`~repro.iostack.layouts` -- where arrays land (shared file with
  derived extents vs. file per grid; blocked fields vs. sorted particles);
* :mod:`~repro.iostack.transports` -- which ranks move which bytes
  (rank-0 funnel, collective two-phase, independent block-wise);
* :mod:`~repro.iostack.formats` -- how arrays become bytes (HDF4 SD, raw
  shared file, HDF5 datasets/hyperslabs);
* :mod:`~repro.iostack.registry` -- named declarative compositions of the
  above, resolved by the CLI, regression matrix and AutoTuner.

Cross-cutting orchestration (hierarchy sidecar, CRC32 manifest commit,
retry/degradation, phase timing) lives in
:class:`repro.enzo.io_base.ComposedStrategy`, shared by every composition.
"""

# Import order matters: layouts has no enzo dependencies and must land in
# sys.modules before formats/transports pull in enzo submodules, whose
# package __init__ imports the path helpers from iostack.layouts.
from . import layouts, formats, transports, registry
from .formats import FieldWriteOp, HDF4SDFormat, HDF5Format, RawSharedFormat
from .layouts import FilePerGridLayoutPlanner, SharedFileLayoutPlanner
from .registry import StrategyComposition
from .transports import CollectiveTransport, FunnelTransport, IndependentTransport

__all__ = [
    "CollectiveTransport",
    "FieldWriteOp",
    "FilePerGridLayoutPlanner",
    "FunnelTransport",
    "HDF4SDFormat",
    "HDF5Format",
    "IndependentTransport",
    "RawSharedFormat",
    "SharedFileLayoutPlanner",
    "StrategyComposition",
    "formats",
    "layouts",
    "registry",
    "transports",
]
