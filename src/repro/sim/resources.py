"""Shared-resource timing primitives.

A simulated machine is full of serially-reusable devices: disk spindles, I/O
node service threads, network links.  All of them share one behaviour: a
request that arrives while the device is busy waits, then occupies the device
for a service time.  :class:`Timeline` captures exactly that (an FCFS device
timeline), and the devices in :mod:`repro.pfs` and :mod:`repro.topology`
compose it with their own service-time formulas.

Timelines are pure timing state -- they do not block threads.  Callers are
expected to invoke them from a scheduling point (see
:meth:`repro.sim.engine.Proc.schedule_point`) so that requests arrive in
global virtual-time order, which makes FCFS well defined and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Timeline"]


@dataclass
class Timeline:
    """An FCFS serially-reusable device.

    Attributes
    ----------
    busy_until:
        Virtual time at which the device next becomes idle.
    busy_time:
        Total time the device has spent serving requests (utilisation).
    requests:
        Number of requests served.
    """

    name: str = "device"
    busy_until: float = 0.0
    busy_time: float = 0.0
    requests: int = 0

    def reset(self) -> None:
        """Forget all timing state (start a fresh measurement window)."""
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.requests = 0

    def serve(self, ready_time: float, duration: float) -> tuple[float, float]:
        """Serve a request that is ready at ``ready_time`` for ``duration``.

        Returns ``(start, end)``: when service actually began (after any
        queueing delay) and when it completed.  The device is marked busy
        until ``end``.
        """
        if duration < 0:
            raise ValueError(f"negative service duration: {duration}")
        start = max(ready_time, self.busy_until)
        end = start + duration
        self.busy_until = end
        self.busy_time += duration
        self.requests += 1
        return start, end

