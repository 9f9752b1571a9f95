"""Deterministic discrete-event engine for SPMD parallel-I/O simulation.

Public surface:

* :class:`Engine` -- runs an SPMD function on ``nprocs`` virtual ranks;
* :class:`Proc` -- the per-rank handle (virtual clock, scheduling);
* :class:`Timeline`, :class:`BandwidthLink` -- FCFS device/link timing
  primitives;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .engine import Engine, Proc, ProcState, current_proc
from .errors import DeadlockError, NotRunningError, RankFailedError, SimError
from .resources import BandwidthLink, Timeline

__all__ = [
    "Engine",
    "Proc",
    "ProcState",
    "current_proc",
    "Timeline",
    "BandwidthLink",
    "SimError",
    "DeadlockError",
    "RankFailedError",
    "NotRunningError",
]
