"""Deterministic discrete-event engine for SPMD parallel-I/O simulation.

Public surface:

* :class:`Engine` -- runs an SPMD function on ``nprocs`` virtual ranks;
* :class:`Proc` -- the per-rank handle (virtual clock, scheduling);
* :class:`Timeline` -- the FCFS device timing primitive;
* the exception hierarchy in :mod:`repro.sim.errors`.
"""

from .engine import Engine, Proc, ProcState
from .errors import DeadlockError, NotRunningError, RankFailedError, SimError
from .resources import Timeline

__all__ = [
    "Engine",
    "Proc",
    "ProcState",
    "Timeline",
    "SimError",
    "DeadlockError",
    "RankFailedError",
    "NotRunningError",
]
