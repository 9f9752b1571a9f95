"""Interconnect models.

A network moves a message of ``nbytes`` from node ``src`` to node ``dst`` and
reports the virtual time at which the last byte arrives.  All concrete models
share one structure: each node owns an *egress* and an *ingress* FCFS link of
finite bandwidth, and a message must occupy first the sender's egress link and
then the receiver's ingress link, plus a per-message wire latency.  Hot spots
(many-to-one gathers, single-writer I/O funnels) therefore serialise on the
receiver's ingress link, which is the first-order contention effect in the
paper's experiments.

Concrete classes only differ in their parameters and in intra-node handling:

* :class:`SwitchedNetwork` -- a generic full-bisection switch (SP switch,
  Myrinet, fast Ethernet through a switch); every node pair communicates at
  NIC speed.
* :class:`CCNumaNetwork` -- the Origin2000 bristled-fat-hypercube: messages
  are memory-to-memory copies at very high bandwidth and sub-microsecond
  latency; "local" transfers (same node) run at memory-copy speed.
"""

from __future__ import annotations

from math import inf

from ..sim.resources import Timeline

__all__ = ["Network", "SwitchedNetwork", "CCNumaNetwork"]


class Network:
    """Base interconnect: per-node ingress/egress links plus wire latency."""

    def __init__(
        self,
        nnodes: int,
        latency: float,
        bandwidth: float,
        *,
        local_bandwidth: float | None = None,
        fabric_bandwidth: float = inf,
        name: str = "network",
    ):
        """``bandwidth`` is per-NIC in bytes/s; ``latency`` in seconds.

        ``local_bandwidth`` is used for same-node transfers (defaults to
        4x the NIC bandwidth, a crude memory-copy model).
        ``fabric_bandwidth`` caps the *aggregate* inter-node traffic: all
        messages additionally occupy one shared switch-fabric timeline.
        Full-bisection interconnects leave it infinite; an oversubscribed
        commodity Ethernet switch makes it a few NICs' worth, which is the
        contention the paper blames on Chiba City's fast Ethernet.

        Every parameter is checked here, NaN included: ``transfer`` and the
        ranks' clocks take them unchecked, so this keeps clocks monotonic.
        """
        if nnodes < 1:
            raise ValueError(f"{name}: network needs at least one node")
        if local_bandwidth is None:
            local_bandwidth = 4.0 * bandwidth
        for what, value in (("bandwidth", bandwidth),
                            ("local_bandwidth", local_bandwidth),
                            ("fabric_bandwidth", fabric_bandwidth)):
            if not value > 0:
                raise ValueError(f"{name}: {what} must be positive, got {value}")
        if not latency >= 0:
            raise ValueError(f"{name}: latency must be >= 0, got {latency}")
        self.name = name
        self.nnodes = nnodes
        self.latency = latency
        self.bandwidth = bandwidth
        self.local_bandwidth = local_bandwidth
        self.fabric_bandwidth = fabric_bandwidth
        self.fabric = Timeline(name=f"{name}.fabric")
        self.egress = [Timeline(name=f"{name}.egress[{i}]") for i in range(nnodes)]
        self.ingress = [Timeline(name=f"{name}.ingress[{i}]") for i in range(nnodes)]
        self.bytes_moved = 0
        self.messages = 0

    def reset_timing(self) -> None:
        """Zero all link timelines (between independent timed phases)."""
        self.fabric.reset()
        for t in self.egress:
            t.reset()
        for t in self.ingress:
            t.reset()

    def transfer(self, ready_time: float, src: int, dst: int, nbytes: int) -> float:
        """Send ``nbytes`` from ``src`` to ``dst``; return the arrival time.

        Books the egress and ingress links as ``Timeline.serve`` would,
        inline: this runs once per simulated message."""
        nnodes = self.nnodes
        if not (0 <= src < nnodes and 0 <= dst < nnodes):
            bad = src if not 0 <= src < nnodes else dst
            raise ValueError(f"node {bad} out of range [0, {nnodes})")
        if nbytes < 0:
            raise ValueError("negative message size")
        self.bytes_moved += nbytes
        self.messages += 1
        if src == dst:
            # Intra-node: a memory copy, no NIC involvement.
            return ready_time + nbytes / self.local_bandwidth
        occupancy = nbytes / self.bandwidth
        link = self.egress[src]
        out_start = max(ready_time, link.busy_until)
        out_end = link.busy_until = out_start + occupancy
        link.busy_time += occupancy
        link.requests += 1
        if self.fabric_bandwidth != inf:
            _, fabric_end = self.fabric.serve(out_start, nbytes / self.fabric_bandwidth)
            out_end = max(out_end, fabric_end)
        # Cut-through: bytes start arriving one wire latency after they start
        # leaving, so the ingress link is occupied from then on; the message
        # has fully arrived when both pipelines have drained.
        link = self.ingress[dst]
        in_start = max(out_start + self.latency, link.busy_until)
        in_end = link.busy_until = in_start + occupancy
        link.busy_time += occupancy
        link.requests += 1
        return max(in_end, out_end + self.latency)


class SwitchedNetwork(Network):
    """Full-bisection switch: IBM SP switch, Myrinet, switched Ethernet."""

    def __init__(self, nnodes: int, latency: float, bandwidth: float, **kw):
        kw.setdefault("name", "switch")
        super().__init__(nnodes, latency, bandwidth, **kw)


class CCNumaNetwork(Network):
    """SGI Origin2000 ccNUMA interconnect.

    The bristled fat hypercube has very high bisection bandwidth and remote
    memory latencies under a microsecond, so message passing between ranks is
    close to the cost of a memory copy.  This is why the paper's two-phase
    communication overhead is "relatively low" on this platform.
    """

    def __init__(
        self,
        nnodes: int,
        latency: float = 1.0e-6,
        bandwidth: float = 600e6,
        **kw,
    ):
        kw.setdefault("local_bandwidth", 2.0 * bandwidth)
        kw.setdefault("name", "ccnuma")
        super().__init__(nnodes, latency, bandwidth, **kw)
