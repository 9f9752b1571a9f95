"""Bounded-retry policy for checkpoint I/O.

A :class:`RetryPolicy` tells the ADIO layer (and, above it, the checkpoint
strategies) how to react when the file system raises an
:class:`~repro.pfs.base.InjectedIOError`: retry up to ``max_retries`` times,
backing off in *simulated* time between attempts, and degrade a failed
collective write to independent I/O rather than killing the dump.

The default policy (``max_retries=0``) is fail-fast -- identical to the
behaviour before the resilience subsystem existed -- so faults still
surface as :class:`~repro.sim.errors.RankFailedError` unless a caller
explicitly opts into recovery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]

# The backoff schedule, in simulated seconds: 1 ms, doubling, capped at 1 s.
_BACKOFF_BASE = 1e-3
_BACKOFF_FACTOR = 2.0
_MAX_BACKOFF = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a failed I/O operation.

    Backoff is exponential in simulated seconds: attempt *k* (1-based)
    sleeps ``min(1 ms * 2**(k-1), 1 s)`` before re-issuing the operation.

    With a policy attached, the MPI-IO/HDF5 strategies also fall back from
    a failed collective write to per-rank independent writes of the same
    bytes instead of aborting the dump.
    """

    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Simulated sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = _BACKOFF_BASE * _BACKOFF_FACTOR ** (attempt - 1)
        return min(delay, _MAX_BACKOFF)
