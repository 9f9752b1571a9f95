"""Machine descriptions: compute nodes, rank placement, CPU speed.

A :class:`Machine` binds together an interconnect, a rank-to-node placement
(SMP nodes hold several ranks), a crude CPU-speed model used by the AMR
solver to charge compute time, and -- attached after construction -- a file
system from :mod:`repro.pfs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..pfs.base import FileSystem

__all__ = ["Machine"]


@dataclass
class Machine:
    """A parallel platform as seen by the simulated software stack.

    Parameters
    ----------
    name:
        Human-readable platform name (shows up in benchmark output).
    nprocs:
        Number of processors (MPI ranks) available.
    procs_per_node:
        SMP width; ranks ``[k*ppn, (k+1)*ppn)`` share node ``k`` and hence
        its NIC and its per-node I/O request queue.
    network:
        Interconnect between nodes (NIC contention, latency).
    cpu_flops:
        Per-processor floating-point rate used to charge solver compute time.
    memcpy_bandwidth:
        In-memory copy speed; used for local packing/unpacking costs.
    """

    name: str
    nprocs: int
    procs_per_node: int
    network: Network
    cpu_flops: float = 500e6
    memcpy_bandwidth: float = 400e6
    fs: Optional["FileSystem"] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("machine needs at least one processor")
        if self.procs_per_node < 1:
            raise ValueError("procs_per_node must be >= 1")
        needed = (self.nprocs + self.procs_per_node - 1) // self.procs_per_node
        if self.network.nnodes < needed:
            raise ValueError(
                f"network has {self.network.nnodes} nodes but "
                f"{self.nprocs} ranks at {self.procs_per_node}/node need {needed}"
            )

    # -- placement ---------------------------------------------------------

    def node_of(self, rank: int) -> int:
        """The node hosting ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        return rank // self.procs_per_node

    @property
    def nnodes(self) -> int:
        """Number of compute nodes actually occupied by ranks."""
        return (self.nprocs + self.procs_per_node - 1) // self.procs_per_node

    # -- cost helpers --------------------------------------------------------

    def compute_time(self, flops: float) -> float:
        """Seconds to execute ``flops`` floating-point operations."""
        return flops / self.cpu_flops

    def memcpy_time(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` within a node's memory."""
        return nbytes / self.memcpy_bandwidth

    def reset_timing(self) -> None:
        """Zero network and file-system timelines between timed phases."""
        self.network.reset_timing()
        if self.fs is not None:
            self.fs.reset_timing()

    def attach_fs(self, fs: "FileSystem") -> "Machine":
        """Attach a file system; returns self for chaining."""
        self.fs = fs
        return self
