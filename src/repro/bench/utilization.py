"""Device-utilisation reporting for a simulated machine.

After an experiment, every FCFS timeline in the machine knows how long it
was busy and how many requests it served.  This module turns that into the
bottleneck analysis an I/O study lives on: which device saturated, which
sat idle — e.g. the single P0 I/O channel pegged at ~100% under HDF4 while
fifteen disks idle.
"""

from __future__ import annotations

from ..topology.machine import Machine

__all__ = ["device_utilization"]


def _row(name: str, timeline, span: float) -> list:
    frac = timeline.busy_time / span if span > 0 else 0.0
    return [name, timeline.requests, f"{timeline.busy_time:.3f}", f"{frac:5.1%}"]


def device_utilization(machine: Machine, span: float) -> list[list]:
    """Rows of (device, requests, busy seconds, utilisation) over ``span``."""
    rows: list[list] = []
    net = machine.network
    if net.fabric_bandwidth != float("inf"):
        rows.append(_row("net.fabric", net.fabric, span))
    busiest_out = max(net.egress, key=lambda t: t.busy_time)
    busiest_in = max(net.ingress, key=lambda t: t.busy_time)
    rows.append(_row(f"net.egress[{net.egress.index(busiest_out)}]",
                     busiest_out, span))
    rows.append(_row(f"net.ingress[{net.ingress.index(busiest_in)}]",
                     busiest_in, span))
    if machine.fs is not None:
        rows.extend(_row(dev.name, dev, span) for dev in machine.fs.devices())
    return rows
