"""The background-flush service: request objects and the progress engine.

One :class:`ProgressEngine` per rank lives in the rank's ``Proc.ns``
scratch space (the same place the MPI mailboxes live), so every SPMD run
starts with a fresh, empty queue.  Its ``clock`` is the drain timeline: a
posted write is issued to the file system at
``max(rank clock, drain clock)`` -- the progress thread serialises its own
queue but runs concurrently with the rank -- and the request's completion
time advances only the drain timeline.  The rank's clock catches up to a
request's completion exactly when the engine retires it (queue
backpressure, a pre-read drain, or the end-of-dump drain), which is where
overlap with compute comes from.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = [
    "AioRequest",
    "ProgressEngine",
    "drain_all",
    "progress_engine",
]

_NS_KEY = "aio.progress"

#: Bound on a rank's staged bytes (the queue is gated by memory, not by
#: request count, as in VOL-async); posting past it retires the oldest
#: requests first (backpressure), charging the waiting time to the posting
#: rank like a full staging queue would.
STAGING_BYTES = 64 * 1024 * 1024


@dataclass
class AioRequest:
    """A posted write on a rank's progress-engine queue.

    ``done_time`` is on the drain timeline; ``error`` holds a failure the
    background thread hit after exhausting its retries, raised when the
    engine retires the request.  Completions are in post order on the
    single progress thread, so errors surface oldest-first.
    """

    path: str
    nbytes: int
    done_time: float
    error: BaseException | None = None


class ProgressEngine:
    """One rank's simulated I/O-progress thread and staging queue."""

    def __init__(self):
        self.clock = 0.0  # drain timeline (>= every retired done_time)
        self.pending: deque[AioRequest] = deque()
        self.staged_bytes = 0

    def post(self, req: AioRequest) -> None:
        """Enqueue a request whose issue the caller already timed."""
        self.clock = max(self.clock, req.done_time)
        self.pending.append(req)
        self.staged_bytes += req.nbytes

    def reserve(self, nbytes: int, proc) -> None:
        """Backpressure: retire oldest requests until ``nbytes`` fits."""
        while self.pending and self.staged_bytes + nbytes > STAGING_BYTES:
            self.retire_oldest(proc)

    def retire_oldest(self, proc) -> None:
        """Wait for the oldest request; raises its deferred error."""
        req = self.pending.popleft()
        self.staged_bytes -= req.nbytes
        proc.advance_to(req.done_time)
        if req.error is not None:
            raise req.error

    def drain(self, proc) -> None:
        """Retire everything outstanding (the explicit flush barrier)."""
        while self.pending:
            self.retire_oldest(proc)


def progress_engine(proc) -> ProgressEngine:
    """Get or create the rank's progress engine (fresh per SPMD run)."""
    eng = proc.ns.get(_NS_KEY)
    if eng is None:
        eng = ProgressEngine()
        proc.ns[_NS_KEY] = eng
    return eng


def drain_all(comm) -> None:
    """Drain this rank's progress engine, if one exists (idempotent)."""
    eng = comm.proc.ns.get(_NS_KEY)
    if eng is not None:
        eng.drain(comm.proc)
