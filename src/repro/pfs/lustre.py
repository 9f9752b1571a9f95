"""Lustre-like object-storage file system: what Lustre adds to the striped path.

Requests take :class:`~repro.pfs.striped.StripedServerFS`'s one request
path unchanged (client channel -> NIC -> server queue -> request CPU ->
disk, and its list-I/O batch form).  This module holds only the three
things that are Lustre's own and matter for checkpoint I/O:

* **per-file layout** -- every file carries its own ``(stripe_count,
  stripe_size, start OST)`` :class:`~repro.pfs.striping.StripeLayout`
  chosen at create time (``lfs setstripe`` style).  A file with
  ``stripe_count < nosts`` uses only a subset of the OSTs, starting at a
  rotor-assigned index, so wide files and narrow files coexist on one
  volume.  Widening the stripe count of the checkpoint file is the classic
  Lustre tuning knob, exposed to MPI-IO through the
  ``striping_factor``/``striping_unit`` hints.
* **per-OST request queues** -- the shared path's server-queue stage with
  a service time above zero: many clients hammering one OST with small
  requests serialise there even when disks are idle.
* **a single MDS** -- opens, creates and deletes all pass through one
  metadata server whose service time grows with the number of files it
  tracks.  File-per-grid output patterns therefore degrade *faster* on
  Lustre than on node-local file systems, where each node only pays for
  its own namespace.
"""

from __future__ import annotations

from dataclasses import replace

from ..sim.resources import Timeline
from ..topology.network import Network
from .blockstore import BlockStore
from .striped import StripedServerFS

__all__ = ["LustreFS"]


class LustreFS(StripedServerFS):
    """The striped request path plus per-file layouts, OST queues, one MDS."""

    def __init__(
        self,
        name: str,
        *,
        nosts: int,
        stripe_size: int,
        stripe_count: int = 1,
        disk_bandwidth: float,
        seek_time: float,
        request_cpu_time: float = 0.0,
        server_net_bandwidth: float = float("inf"),
        net_latency: float = 0.0,
        ost_queue_time: float = 0.0,
        mds_open_time: float = 0.0,
        mds_per_file_time: float = 0.0,
        cache_bytes_per_ost: int = 0,
        client_network: Network | None = None,
        client_channel_bandwidth: float = float("inf"),
        store: BlockStore | None = None,
    ):
        super().__init__(
            name,
            nservers=nosts,
            stripe_size=stripe_size,
            disk_bandwidth=disk_bandwidth,
            seek_time=seek_time,
            request_cpu_time=request_cpu_time,
            server_net_bandwidth=server_net_bandwidth,
            net_latency=net_latency,
            cache_bytes_per_server=cache_bytes_per_ost,
            client_network=client_network,
            client_channel_bandwidth=client_channel_bandwidth,
            store=store,
        )
        self.nosts = nosts
        # Volume-default layout; ``lfs setstripe`` overrides live in
        # ``_file_layouts``.  ``layout.stripe_size`` is what the insight
        # detectors align against.
        self.layout = replace(self.layout, stripe_count=min(stripe_count, nosts))
        # One request queue per OST: the server-side serialisation point.
        for ost in self.servers:
            ost.queue.name = f"{name}.ostq[{ost.index}]"
            ost.queue_time = ost_queue_time
        # The single metadata server and the namespace it tracks.
        self.mds_open_time = mds_open_time
        self.mds_per_file_time = mds_per_file_time
        self.mds = Timeline(name=f"{name}.mds")
        self._mds_files: set[str] = set()
        # Round-robin rotor assigning each new file's starting OST, so
        # narrow files spread across the volume instead of piling on OST 0.
        self._next_ost = 0

    # -- layout ------------------------------------------------------------

    def set_file_striping(
        self,
        path: str,
        stripe_size: int | None = None,
        stripe_count: int | None = None,
    ) -> None:
        """``lfs setstripe``: pin ``path``'s layout before it is written.

        Either knob may be omitted to keep the volume default; an explicit
        layout always starts at OST 0 (``lfs setstripe -i 0`` semantics),
        keeping tuned runs deterministic.
        """
        if stripe_size is None and stripe_count is None:
            return
        count = self.layout.stripe_count if stripe_count is None else stripe_count
        self._file_layouts[path] = replace(
            self.layout,
            stripe_size=self.layout.stripe_size if stripe_size is None else stripe_size,
            stripe_count=max(1, min(count, self.nosts)),
        )

    # -- metadata ----------------------------------------------------------

    def _service_meta(self, op: str, path: str, node: int, ready_time: float) -> float:
        """Every namespace operation crosses the one MDS.

        Service time grows linearly with the files the MDS tracks, so a
        file-per-grid dump of G grids pays O(G^2) aggregate metadata time
        -- the single-MDS explosion the node-local model does not have.
        """
        cost = self.mds_open_time + self.mds_per_file_time * len(self._mds_files)
        _, t = self.mds.serve(ready_time + self.net_latency, cost)
        if op == "create":
            self._mds_files.add(path)
            if path not in self._file_layouts:  # no ``lfs setstripe``: rotor start
                self._file_layouts[path] = replace(self.layout, start=self._next_ost)
                self._next_ost = (self._next_ost + self.layout.stripe_count) % self.nosts
        elif op == "delete":
            self._mds_files.discard(path)
            self._file_layouts.pop(path, None)
        return t + self.net_latency

    def devices(self):
        return super().devices() + [self.mds]
