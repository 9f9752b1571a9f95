"""Striped client/server parallel file system model (GPFS-, PVFS- and Lustre-like).

Every server-based preset takes this one request path -- client prelude
(SMP queue, channel, tokens) -> per-file layout -> per-server runs ->
[server queue] -> NIC-in -> request CPU -> disk -> ack, or its list-I/O
batch form -- and a stage whose service time is 0 is skipped.  The model
captures the effects the paper measures:

* **striping decomposition** -- a request is split into stripe-unit chunks,
  consecutive chunks on the same server are coalesced into runs, and each
  run is served by that server's network link, request CPU and disk;
* **disk seek locality** -- a run that does not start where the server's
  disk head last stopped pays a seek, so many small interleaved requests
  (the access-pattern/striping *mismatch*) are far slower than streams;
* **server read cache** -- recently touched blocks skip the disk, producing
  the PVFS read-caching benefit the paper observes;
* **shared-file tokens** (GPFS) -- each file has one token, held by the
  node that last wrote it; a write (or a read) from a different node pays
  a token-revocation penalty, so single-writer streams are cheap and
  interleaved shared-file access thrashes;
* **SMP I/O queue** (IBM SP) -- every request from a node passes through a
  per-node queue with a fixed service cost, so many ranks of one SMP node
  doing I/O simultaneously serialise;
* **client NIC coupling** -- payload occupies the client's network-interface
  timeline of the machine interconnect, so I/O traffic and message-passing
  traffic contend (the fast-Ethernet effect on the Linux cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..sim.resources import Timeline
from ..topology.network import Network
from .base import FileSystem, LRUCache
from .striping import Chunk, StripeLayout

__all__ = ["IOServer", "StripedServerFS"]


@dataclass
class IOServer:
    """One I/O server: request queue, NIC in/out, request CPU, disk with head."""

    index: int
    disk_bandwidth: float
    seek_time: float
    request_cpu_time: float
    net_bandwidth: float
    cache: LRUCache
    disk: Timeline = field(default_factory=Timeline)
    cpu: Timeline = field(default_factory=Timeline)
    net_in: Timeline = field(default_factory=Timeline)
    net_out: Timeline = field(default_factory=Timeline)
    # Per-request queue in front of the other stages (Lustre's per-OST
    # request queue); with a service time of 0.0 the stage is skipped.
    queue: Timeline = field(default_factory=Timeline)
    queue_time: float = 0.0
    # (path, local_offset) where the head stopped; used for seek detection.
    _head: tuple[str, int] | None = None

    def disk_time(self, path: str, local_offset: int, nbytes: int) -> float:
        """Service time for ``nbytes`` at ``local_offset``, tracking the head."""
        seek = 0.0
        if self._head != (path, local_offset):
            seek = self.seek_time
        self._head = (path, local_offset + nbytes)
        return seek + nbytes / self.disk_bandwidth

    def serve_write(self, path: str, local_offset: int, nbytes: int, arrive: float) -> float:
        """Payload has arrived at ``arrive``; returns write completion."""
        if self.queue_time > 0.0:
            _, arrive = self.queue.serve(arrive, self.queue_time)
        _, t = self.net_in.serve(arrive, nbytes / self.net_bandwidth)
        _, t = self.cpu.serve(t, self.request_cpu_time)
        _, t = self.disk.serve(t, self.disk_time(path, local_offset, nbytes))
        self.cache.populate(path, local_offset, nbytes)
        return t

    def serve_read(self, path: str, local_offset: int, nbytes: int, arrive: float) -> float:
        """Request arrived at ``arrive``; returns when data is on the wire."""
        if self.queue_time > 0.0:
            _, arrive = self.queue.serve(arrive, self.queue_time)
        _, t = self.cpu.serve(arrive, self.request_cpu_time)
        missing = self.cache.lookup(path, local_offset, nbytes)
        if missing > 0:
            _, t = self.disk.serve(t, self.disk_time(path, local_offset, missing))
        _, t = self.net_out.serve(t, nbytes / self.net_bandwidth)
        return t


@dataclass(frozen=True)
class _Run:
    """Consecutive chunks on one server merged into a single wire request."""

    server: int
    local_offset: int
    size: int


def coalesce_runs(chunks: list[Chunk]) -> list[_Run]:
    """Merge stripe chunks that are contiguous in a server's local store."""
    pending: dict[int, _Run] = {}
    runs: list[_Run] = []
    for c in chunks:
        prev = pending.get(c.server)
        if prev is not None and prev.local_offset + prev.size == c.local_offset:
            pending[c.server] = _Run(c.server, prev.local_offset, prev.size + c.size)
        else:
            if prev is not None:
                runs.append(prev)
            pending[c.server] = _Run(c.server, c.local_offset, c.size)
    runs.extend(pending.values())
    return runs


class StripedServerFS(FileSystem):
    """A file system striped over dedicated I/O servers.

    Parameters select which contention mechanisms are active; the presets in
    :mod:`repro.topology.presets` configure them per platform.
    """

    def __init__(
        self,
        name: str,
        *,
        nservers: int,
        stripe_size: int,
        disk_bandwidth: float,
        seek_time: float,
        request_cpu_time: float = 0.0,
        server_net_bandwidth: float = float("inf"),
        net_latency: float = 0.0,
        metadata_time: float = 0.0,
        cache_bytes_per_server: int = 0,
        client_network: Network | None = None,
        client_channel_bandwidth: float = float("inf"),
        write_token_time: float = 0.0,
        stripe_aligned_io: bool = False,
        smp_io_queue_time: float = 0.0,
    ):
        super().__init__(name=name)
        self.layout = StripeLayout(stripe_size=stripe_size, nservers=nservers)
        # The paper's closing file-system suggestion: "flexible,
        # application-specific disk file striping and distribution
        # patterns".  Files may override the volume default.
        self._file_layouts: dict[str, StripeLayout] = {}
        self.net_latency = net_latency
        self.metadata_time = metadata_time
        self.client_network = client_network
        # Per-process I/O path ceiling (syscall + page cache + HBA): caps
        # what a single synchronous stream achieves no matter how many
        # servers the file stripes over.
        self.client_channel_bandwidth = client_channel_bandwidth
        self._client_channels: dict[int, Timeline] = {}
        # Above 0, one coarse token per file -- GPFS's initial whole-range
        # grant: under interleaved multi-node access virtually every request
        # from a different node than the last holder pays a revocation,
        # which is the access/striping mismatch collapse the paper measured.
        self.write_token_time = write_token_time
        # Per SMP node; requests arrive carrying their node (ADIO passes
        # ``Machine.node_of`` of the issuing rank).
        self.smp_io_queue_time = smp_io_queue_time
        self.servers = [
            IOServer(
                index=i,
                disk_bandwidth=disk_bandwidth,
                seek_time=seek_time,
                request_cpu_time=request_cpu_time,
                net_bandwidth=server_net_bandwidth,
                cache=LRUCache(
                    capacity_bytes=cache_bytes_per_server,
                    block_size=stripe_size,
                    amplify=stripe_aligned_io,
                ),
                disk=Timeline(name=f"{name}.disk[{i}]"),
            )
            for i in range(nservers)
        ]
        # GPFS-like file tokens: path -> node holding it (``None`` once a
        # read flushed it: shared).  Revocations serialise at the token
        # manager (round-trip + flush of the previous owner's cached copy),
        # which is what makes interleaved shared-file access collapse.
        self._token_owner: dict[str, int | None] = {}
        self.token_manager = Timeline(name=f"{name}.token-mgr")
        # Per-SMP-node I/O request queues (created lazily).
        self._node_queues: dict[int, Timeline] = {}
        # Per-node background-flush NIC channels (created lazily): the
        # async progress thread's injection path.  Drain writes are booked
        # ahead of the issuing rank's clock; putting them on the shared
        # ``client_network`` egress would let those future reservations
        # head-of-line-block ordinary messages, which a real NIC
        # timeshares instead.
        self._flush_egress: dict[int, Timeline] = {}
        self.token_revocations = 0

    # -- helpers -----------------------------------------------------------

    def set_file_striping(
        self, path: str, stripe_size: int | None = None, stripe_count: int | None = None
    ) -> None:
        """Give ``path`` its own stripe size (application-specific layout).

        Must be called before data is written; the simulated store keeps
        bytes independently of layout, so only timing is affected.
        ``stripe_count`` is accepted for hint-plumbing symmetry with
        :class:`~repro.pfs.lustre.LustreFS` but ignored: this model's
        server count is fixed at volume creation.
        """
        if stripe_size is None:
            return
        self._file_layouts[path] = replace(self.layout, stripe_size=stripe_size)

    def layout_for(self, path: str) -> StripeLayout:
        return self._file_layouts.get(path, self.layout)

    def _channel(self, node: int, ready: float, nbytes: int) -> float:
        """Client side of a request: the node's SMP I/O queue, then the
        per-process I/O channel; returns when the request leaves the node."""
        if self.smp_io_queue_time > 0.0:
            q = self._node_queues.get(node)
            if q is None:
                q = self._node_queues[node] = Timeline(name=f"{self.name}.ioq[{node}]")
            _, ready = q.serve(ready, self.smp_io_queue_time)
        if self.client_channel_bandwidth == float("inf"):
            return ready
        ch = self._client_channels.get(node)
        if ch is None:
            ch = self._client_channels[node] = Timeline(name=f"{self.name}.chan[{node}]")
        _, done = ch.serve(ready, nbytes / self.client_channel_bandwidth)
        return done

    def _client_links(self, node: int):
        if self.client_network is None:
            return None, None, 0.0
        net = self.client_network
        egress = net.egress[node]
        if self.background_flush_active:
            egress = self._flush_egress.get(node)
            if egress is None:
                egress = Timeline(name=f"{self.name}.flush[{node}]")
                self._flush_egress[node] = egress
        return egress, net.ingress[node], 1.0 / net.bandwidth

    def _token_penalty(self, path: str, node: int, ready: float) -> float:
        """GPFS write-token cost: revocations serialise at the token manager.

        Returns the time at which the file's token is held.  A file never
        written before is granted for free; one last written by a different
        node costs one serialised revocation round-trip (which is why
        interleaved shared-file writes collapse).
        """
        owner = self._token_owner.get(path)
        if owner != node:
            if owner is not None:
                self.token_revocations += 1
                _, ready = self.token_manager.serve(ready, self.write_token_time)
            self._token_owner[path] = node
        return ready

    def _read_token_penalty(self, path: str, node: int, ready: float) -> float:
        """Reading a file another node holds the token for flushes it once.

        After the flush the file is shared (owner ``None``): subsequent
        readers are free until somebody writes again.
        """
        owner = self._token_owner.get(path)
        if owner is not None and owner != node:
            self.token_revocations += 1
            _, ready = self.token_manager.serve(ready, self.write_token_time)
            self._token_owner[path] = None
        return ready

    # -- timing model --------------------------------------------------------

    def _service_meta(self, op: str, path: str, node: int, ready_time: float) -> float:
        # A metadata round-trip to server 0's CPU.
        srv = self.servers[0]
        _, t = srv.cpu.serve(ready_time + self.net_latency, self.metadata_time)
        return t + self.net_latency

    def _service_write(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        if nbytes == 0:
            return ready_time
        t = self._channel(node, ready_time, nbytes)
        if self.write_token_time > 0.0:
            t = self._token_penalty(path, node, t)
        # Closed-form per-server runs: O(servers touched), not O(stripes).
        runs = self.layout_for(path).server_runs(offset, nbytes)
        egress, _, inv_bw = self._client_links(node)
        completion = t
        servers = self.servers
        for server, local_offset, size in runs:
            if egress is not None:
                _, sent = egress.serve(t, size * inv_bw)
            else:
                sent = t
            done = servers[server].serve_write(
                path, local_offset, size, sent + self.net_latency
            )
            completion = max(completion, done + self.net_latency)  # ack
        return completion

    def _service_read(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        if nbytes == 0:
            return ready_time
        t = self._channel(node, ready_time, nbytes)
        if self.write_token_time > 0.0:
            t = self._read_token_penalty(path, node, t)
        runs = self.layout_for(path).server_runs(offset, nbytes)
        _, ingress, inv_bw = self._client_links(node)
        completion = t
        servers = self.servers
        for server, local_offset, size in runs:
            on_wire = servers[server].serve_read(
                path, local_offset, size, t + self.net_latency
            )
            if ingress is not None:
                _, arrived = ingress.serve(on_wire + self.net_latency, size * inv_bw)
            else:
                arrived = on_wire + self.net_latency
            completion = max(completion, arrived)
        return completion

    def _service_list(self, path, segments, node, ready_time, op):
        """PVFS list-I/O: the access list travels in one request.

        Per-request costs (SMP queue, client channel, request CPU at each
        server) are paid once; the disk still serves each physical run.
        """
        nbytes = sum(n for _, n in segments)
        if nbytes == 0:
            return ready_time
        t = self._channel(node, ready_time, nbytes)
        if self.write_token_time > 0.0:
            penalty = self._token_penalty if op == "write" else self._read_token_penalty
            t = penalty(path, node, t)
        layout = self.layout_for(path)
        chunks = [
            c for off, n in segments for c in layout.decompose(off, n)
        ]
        runs = coalesce_runs(sorted(chunks, key=lambda c: c.file_offset))
        egress, ingress, inv_bw = self._client_links(node)
        # Group the list's runs per server: the server sees the whole batch
        # and can elevator-schedule it, so it pays one request-CPU charge
        # and one seek for the batch, then streams the bytes in offset
        # order -- the core advantage of list I/O over per-segment access.
        per_server: dict[int, list] = {}
        for run in runs:
            per_server.setdefault(run.server, []).append(run)
        completion = t
        for sid, batch in per_server.items():
            srv = self.servers[sid]
            batch.sort(key=lambda r: r.local_offset)
            total = sum(r.size for r in batch)
            sent = t
            if op == "write" and egress is not None:
                _, sent = egress.serve(t, total * inv_bw)
            arrive = sent + self.net_latency
            if srv.queue_time > 0.0:
                _, arrive = srv.queue.serve(arrive, srv.queue_time)
            if op == "write":
                _, tt = srv.net_in.serve(arrive, total / srv.net_bandwidth)
                _, tt = srv.cpu.serve(tt, srv.request_cpu_time)
                _, tt = srv.disk.serve(
                    tt, srv.seek_time + total / srv.disk_bandwidth
                )
                srv._head = (path, batch[-1].local_offset + batch[-1].size)
                for run in batch:
                    srv.cache.populate(path, run.local_offset, run.size)
                completion = max(completion, tt + self.net_latency)
            else:
                _, tt = srv.cpu.serve(arrive, srv.request_cpu_time)
                missing = sum(
                    srv.cache.lookup(path, r.local_offset, r.size)
                    for r in batch
                )
                if missing > 0:
                    _, tt = srv.disk.serve(
                        tt, srv.seek_time + missing / srv.disk_bandwidth
                    )
                    srv._head = (
                        path, batch[-1].local_offset + batch[-1].size
                    )
                _, on_wire = srv.net_out.serve(tt, total / srv.net_bandwidth)
                if ingress is not None:
                    _, arrived = ingress.serve(
                        on_wire + self.net_latency, total * inv_bw
                    )
                else:
                    arrived = on_wire + self.net_latency
                completion = max(completion, arrived)
        return completion

    def devices(self):
        devs = [srv.disk for srv in self.servers]
        if self.write_token_time:
            devs.append(self.token_manager)
        devs += [srv.queue for srv in self.servers if srv.queue_time]
        devs += [q for _, q in sorted(self._node_queues.items())]
        devs += [ch for _, ch in sorted(self._client_channels.items())]
        return devs

    def reset_timing(self) -> None:
        super().reset_timing()
        # Server-internal stages and the flush channels are not reported
        # as devices, but carry queue state all the same.
        for srv in self.servers:
            srv.cpu.reset()
            srv.net_in.reset()
            srv.net_out.reset()
            srv._head = None
        for ch in self._flush_egress.values():
            ch.reset()
