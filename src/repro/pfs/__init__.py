"""Simulated parallel file systems.

* :class:`BlockStore` / :class:`StoredFile` -- real byte storage;
* :class:`FileSystem` -- the API the I/O libraries program against
  (zero-cost timing, used in unit tests);
* :class:`StripedServerFS` -- the one striped client/server request path,
  with the contention mechanisms of GPFS and PVFS (and, degenerately, XFS);
* :class:`LustreFS` -- that same path plus what Lustre adds: a per-OST
  request queue, a single MDS, per-file layouts with a start-OST rotor;
* :class:`LocalDiskFS` -- node-private disks (the paper's 4th experiment);
* :class:`StripeLayout` -- striping arithmetic.
"""

from .base import (
    FAULT_MODES,
    FAULT_OPS,
    FaultSpec,
    FileSystem,
    FSCounters,
    InjectedIOError,
    LRUCache,
    TornWriteError,
)
from .blockstore import BlockStore, FileExists, FileNotFound, StoredFile
from .localfs import LocalDiskFS
from .lustre import LustreFS
from .striped import IOServer, StripedServerFS, coalesce_runs
from .striping import Chunk, StripeLayout

__all__ = [
    "FileSystem",
    "FSCounters",
    "LRUCache",
    "InjectedIOError",
    "TornWriteError",
    "FaultSpec",
    "FAULT_OPS",
    "FAULT_MODES",
    "BlockStore",
    "StoredFile",
    "FileNotFound",
    "FileExists",
    "LocalDiskFS",
    "LustreFS",
    "StripedServerFS",
    "IOServer",
    "coalesce_runs",
    "Chunk",
    "StripeLayout",
]
