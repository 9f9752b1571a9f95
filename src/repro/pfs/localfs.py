"""Node-local disk file system (the paper's fourth experiment).

On Chiba City the authors re-ran the workload with every compute node doing
I/O to its *own* local disk through the PVFS interface, eliminating the
compute-node/I-O-node network entirely.  "The only overhead of MPI-IO is the
user-level inter-communication among compute nodes", and the distributed
output files need post-hoc integration.

:class:`LocalDiskFS` models that: one disk per node, every access served by
the accessing node's own disk, no network on the data path, a shared flat
namespace (so the simulation can verify the data), and a bookkeeping map of
which nodes' disks hold pieces of each file so the harness can report the
integration burden the paper notes.
"""

from __future__ import annotations

from ..sim.resources import Timeline
from .base import FileSystem, LRUCache
from .blockstore import BlockStore

__all__ = ["LocalDiskFS"]


class LocalDiskFS(FileSystem):
    """One private disk per compute node; every node keeps its own pieces."""

    def __init__(
        self,
        name: str = "localdisk",
        *,
        nnodes: int,
        disk_bandwidth: float,
        seek_time: float,
        request_cpu_time: float = 0.0,
        metadata_time: float = 0.0,
        cache_bytes_per_node: int = 0,
        store: BlockStore | None = None,
    ):
        super().__init__(name=name, store=store)
        if nnodes < 1:
            raise ValueError("need at least one node")
        self.nnodes = nnodes
        self.disk_bandwidth = disk_bandwidth
        self.seek_time = seek_time
        self.request_cpu_time = request_cpu_time
        self.metadata_time = metadata_time
        self.disks = [Timeline(name=f"{name}.disk[{i}]") for i in range(nnodes)]
        self.caches = [
            LRUCache(capacity_bytes=cache_bytes_per_node) for _ in range(nnodes)
        ]
        self._heads: list[tuple[str, int] | None] = [None] * nnodes
        # path -> nodes whose disks hold a piece of it (created or written)
        self._holders: dict[str, set[int]] = {}

    def _disk_time(self, node: int, path: str, offset: int, nbytes: int) -> float:
        seek = 0.0
        if self._heads[node] != (path, offset):
            seek = self.seek_time
        self._heads[node] = (path, offset + nbytes)
        return seek + nbytes / self.disk_bandwidth

    def _hold(self, path: str, node: int) -> int:
        """The accessing node's disk serves it; record it as a holder."""
        home = node % self.nnodes
        self._holders.setdefault(path, set()).add(home)
        return home

    def _service_meta(self, op: str, path: str, node: int, ready_time: float) -> float:
        if op == "create":
            self._hold(path, node)
        return ready_time + self.metadata_time

    def _service_write(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        if nbytes == 0:
            return ready_time
        home = self._hold(path, node)
        t = ready_time + self.request_cpu_time
        dur = self._disk_time(home, path, offset, nbytes)
        _, done = self.disks[home].serve(t, dur)
        self.caches[home].populate(path, offset, nbytes)
        return done

    def _service_read(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        if nbytes == 0:
            return ready_time
        home = node % self.nnodes
        t = ready_time + self.request_cpu_time
        missing = self.caches[home].lookup(path, offset, nbytes)
        if missing > 0:
            dur = self._disk_time(home, path, offset, missing)
            _, t = self.disks[home].serve(t, dur)
        return t

    def devices(self):
        return self.disks

    def reset_timing(self) -> None:
        super().reset_timing()
        self._heads = [None] * self.nnodes

    def files_needing_integration(self) -> dict[int, list[str]]:
        """Which files have pieces on which node's private disk (paper's
        caveat): a shared file written by several nodes is listed under each."""
        by_node: dict[int, list[str]] = {}
        for path in sorted(self._holders):
            for node in sorted(self._holders[path]):
                by_node.setdefault(node, []).append(path)
        return by_node

    def describe(self) -> str:
        return f"{self.name}: {self.nnodes} private node-local disks"
