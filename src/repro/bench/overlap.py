"""The sync-vs-async driver pair spec.

The compute/checkpoint-overlap claims are regress trends: every async
cell of the paper-figure matrix runs its own synchronous twin
(:func:`repro.bench.regression._sync_twin`).  :class:`OverlapPair` stays
because ``perfbench/workloads.py`` names its ``driver-async`` cells with
it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OverlapPair"]


@dataclass(frozen=True)
class OverlapPair:
    """Sync vs async Enzo driver runs on one machine/workload."""

    machine: str
    sync: str
    async_: str
    problem: str
    nprocs: int = 8
    ncycles: int = 3

    @property
    def id(self) -> str:
        return f"overlap:{self.machine}:{self.async_}:P{self.nprocs}"
