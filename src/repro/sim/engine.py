"""Deterministic discrete-event engine for SPMD simulations.

The engine runs ``nprocs`` *virtual processors* (ranks), each as a Python
thread, but admits **exactly one** thread at a time.  Each rank carries a
virtual clock; whenever a rank is about to interact with shared state (send
a message, touch a file-system resource, enter a barrier) it first reaches a
*schedule point* where control is handed to whichever runnable rank currently
has the smallest clock.  Because context switches happen only at schedule
points chosen by the library, and the next rank is always selected by the
total order ``(clock, rank)``, a simulation is fully deterministic: the same
program produces the same event ordering and the same virtual times on every
run, independent of OS thread scheduling.

Two invariants make the model sound:

* shared-state operations are globally time-ordered -- a rank only performs
  one when no other *runnable* rank has a smaller clock, and a blocked rank
  can only be woken to a time at or after its waker's clock;
* an operation that commutes with everything the other ranks do -- local
  computation (``advance``), consuming a message only this rank can see --
  needs no slot in that order and no context switch
  (docs/architecture.md section 1 has the rule as a table).

The baton is one raw ``threading.Lock`` per rank, locked while the rank is
parked: a switch is ``to._go.release(); own._go.acquire()``.

This is a conservative parallel-discrete-event design in the spirit of the
sequential simulators used for interconnect and storage research, shrunk to
exactly what the parallel-I/O stack above it needs.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

from .errors import DeadlockError, NotRunningError, RankFailedError

__all__ = ["Engine", "Proc", "ProcState"]


class ProcState(Enum):
    """Life-cycle state of a virtual processor."""

    READY = "ready"  # runnable, waiting to be scheduled
    RUNNING = "running"  # the single currently-executing rank
    BLOCKED = "blocked"  # waiting for a wake() from another rank
    DONE = "done"  # SPMD function returned
    FAILED = "failed"  # SPMD function raised


@dataclass
class Proc:
    """One virtual processor: a rank with its own virtual clock."""

    engine: "Engine"
    rank: int
    clock: float = 0.0
    state: ProcState = ProcState.READY
    # The baton: locked while parked, released by whoever hands over control.
    _go: threading.Lock = field(default_factory=threading.Lock)
    result: Any = None
    error: Optional[BaseException] = None
    # Free-form per-rank scratch space for layers above (MPI mailboxes, ...).
    ns: dict = field(default_factory=dict)
    # What a BLOCKED rank is parked on, set by the layer calling block() (MPI:
    # the receive to match) and printed in deadlock reports; None = bare block().
    waiting_on: Any = None

    # -- time ------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Consume ``dt`` seconds of purely local (compute) virtual time."""
        if not dt >= 0:  # also rejects nan, which would poison the heap order
            raise ValueError(f"negative time advance: {dt}")
        self.clock += dt

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t`` (no-op if already past it)."""
        if t > self.clock:
            self.clock = t
        elif t != t:
            raise ValueError(f"cannot advance the clock to {t}")

    # -- scheduling ------------------------------------------------------

    def schedule_point(self) -> None:
        """Yield until this rank has the minimum clock among runnable ranks.

        Call this *immediately before* any operation on shared state so that
        such operations occur in global virtual-time order.
        """
        self.engine._schedule_point(self)

    def block(self) -> None:
        """Suspend this rank until another rank calls :meth:`wake` on it."""
        self.engine._block(self)

    def wake(self, at_time: Optional[float] = None) -> None:
        """Make this (blocked) rank runnable again.

        ``at_time`` advances the woken rank's clock, modelling the time at
        which the unblocking event (message arrival, lock grant) occurs.
        Must be called by the currently running rank (or engine teardown).
        """
        if at_time is not None:
            self.advance_to(at_time)
        state = self.state
        if state is ProcState.BLOCKED or state is ProcState.READY:
            self.state = ProcState.READY
            heapq.heappush(self.engine._ready, (self.clock, self.rank))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Proc rank={self.rank} t={self.clock:.6f} {self.state.value}>"


class Engine:
    """Owns the virtual processors and enforces deterministic scheduling."""

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.procs: list[Proc] = [Proc(self, r) for r in range(nprocs)]
        self._mutex = threading.Lock()  # guards state transitions
        self._failure: Optional[RankFailedError] = None
        self._running = False
        self.context_switches = 0
        # Min-heap of (clock, rank) candidates for the next READY rank.
        # Entries are pushed on every transition to READY and invalidated
        # lazily: an entry is live only while its rank is still READY at
        # exactly that clock.  Stale entries (rank moved on, clock changed)
        # are pruned at peek time; value-equal duplicates are harmless.
        self._ready: list[tuple[float, int]] = []

    # -- public API --------------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        kwargs: Optional[dict] = None,
    ) -> list[Any]:
        """Execute ``fn(proc, *args, **kwargs)`` on every rank.

        Returns the list of per-rank return values, indexed by rank.  If any
        rank raises, a :class:`RankFailedError` chaining the original
        exception is raised after all threads have been stopped.
        """
        if self._running:
            raise NotRunningError("engine is already running")
        kwargs = kwargs or {}
        self._running = True
        self._ready = []
        threads = []
        # At hundreds of ranks the default (often 8 MiB) thread stacks add
        # up; the simulation call depth is shallow, so a small stack keeps
        # P=1024 runs cheap.  Restored after thread creation.
        old_stack = None
        if self.nprocs >= 256:
            try:
                old_stack = threading.stack_size()
                threading.stack_size(512 * 1024)
            except (ValueError, RuntimeError):
                old_stack = None
        try:
            for proc in self.procs:
                proc.state = ProcState.READY
                proc.waiting_on = None
                # Park the baton, whichever way the previous run left it.
                proc._go.acquire(blocking=False)
                self._push_ready(proc)
                t = threading.Thread(
                    target=self._thread_main,
                    args=(proc, fn, args, kwargs),
                    name=f"sim-rank-{proc.rank}",
                    daemon=True,
                )
                t.start()  # parks on its baton at once
                threads.append(t)
        except BaseException as exc:
            # start() can fail ("can't start new thread" at large P): show the
            # parked ranks a failure so they exit instead of wedging the engine.
            self._fail(len(threads), exc, by=None)
            raise
        else:
            self.procs[0]._go.release()
        finally:
            if old_stack is not None:
                threading.stack_size(old_stack)
            for t in threads:
                t.join()
            self._running = False
            failure, self._failure = self._failure, None
        if failure is not None:
            raise failure
        return [p.result for p in self.procs]

    @property
    def max_clock(self) -> float:
        """Largest virtual clock across ranks (the simulation makespan)."""
        return max(p.clock for p in self.procs)

    # -- thread body -------------------------------------------------------

    def _thread_main(self, proc: Proc, fn, args, kwargs) -> None:
        proc._go.acquire()  # park until handed the baton
        if self._failure is not None:  # aborted before we ever ran
            return
        proc.state = ProcState.RUNNING
        try:
            proc.result = fn(proc, *args, **kwargs)
            proc.state = ProcState.DONE
        except _Abort:
            proc.state = ProcState.FAILED
            return
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            proc.state = ProcState.FAILED
            proc.error = exc
            self._fail(proc.rank, exc, by=proc)
            return
        self._hand_off(proc)

    # -- scheduler internals -------------------------------------------------

    def _push_ready(self, proc: Proc) -> None:
        """Record ``proc`` as a candidate at its current clock."""
        heapq.heappush(self._ready, (proc.clock, proc.rank))

    def _runnable(self, exclude: Proc) -> Optional[Proc]:
        """The READY rank with minimal ``(clock, rank)``, or ``None``.

        Pops stale heap entries (rank no longer READY, or READY at a
        different clock) until the head is live.  Every transition to
        READY pushes a fresh entry, so a READY rank always has at least
        one live entry; callers are never READY themselves, so
        ``exclude`` needs no special handling beyond the state check.
        """
        heap = self._ready
        procs = self.procs
        while heap:
            clock, rank = heap[0]
            p = procs[rank]
            if p.state is ProcState.READY and p.clock == clock and p is not exclude:
                return p
            heapq.heappop(heap)
        return None

    def _schedule_point(self, proc: Proc) -> None:
        while True:
            if self._failure is not None:
                raise _Abort()
            nxt = self._runnable(exclude=proc)
            # (proc.clock, proc.rank) <= (nxt.clock, nxt.rank); ranks differ.
            if nxt is None or proc.clock < nxt.clock or (
                proc.clock == nxt.clock and proc.rank < nxt.rank
            ):
                return
            self._switch(proc, nxt, new_state=ProcState.READY)

    def _block(self, proc: Proc) -> None:
        nxt = self._runnable(exclude=proc)
        if nxt is None:
            # Nobody can wake us: classic deadlock.
            proc.state = ProcState.BLOCKED
            proc.error = self._deadlock(proc, "blocked")
            raise _Abort()
        self._switch(proc, nxt, new_state=ProcState.BLOCKED)
        if self._failure is not None:
            raise _Abort()

    def _switch(self, from_proc: Proc, to_proc: Proc, new_state: ProcState) -> None:
        """Transfer the execution baton from ``from_proc`` to ``to_proc``."""
        self.context_switches += 1
        from_proc.state = new_state
        if new_state is ProcState.READY:
            self._push_ready(from_proc)
        to_proc.state = ProcState.RUNNING
        to_proc._go.release()
        from_proc._go.acquire()
        from_proc.state = ProcState.RUNNING

    def _hand_off(self, proc: Proc) -> None:
        """Called when ``proc`` finishes: pass the baton to the next rank."""
        nxt = self._runnable(exclude=proc)
        if nxt is not None:
            nxt.state = ProcState.RUNNING
            nxt._go.release()
            return
        # No READY rank remains: either all are DONE (normal termination)
        # or the remaining BLOCKED ranks are deadlocked.
        self._deadlock(proc, "finished")

    def _deadlock(self, by: Proc, did: str) -> Optional[DeadlockError]:
        """Fail the run if ranks are parked with nobody left to wake them."""
        blocked = [p for p in self.procs if p.state is ProcState.BLOCKED]
        if not blocked:
            return None
        lines = [
            f"  rank {p.rank} at t={p.clock:.6f} in "
            f"{'block()' if p.waiting_on is None else p.waiting_on}"
            for p in blocked
        ]
        dead = DeadlockError(
            f"{len(blocked)} rank(s) blocked and none runnable when rank "
            f"{by.rank} {did}:\n" + "\n".join(lines)
        )
        victim = by if by.state is ProcState.BLOCKED else blocked[0]
        self._fail(victim.rank, dead, by=by)
        return dead

    def _fail(self, rank: int, cause: BaseException, by: Optional[Proc]) -> None:
        """Record the run's first failure and let every parked rank exit."""
        failure = RankFailedError(rank)
        failure.__cause__ = cause
        with self._mutex:
            if self._failure is None:
                self._failure = failure
        self._abort_others(by)

    def _abort_others(self, proc: Optional[Proc]) -> None:
        """Release every parked thread so it can observe the failure and exit."""
        for p in self.procs:
            if p is not proc and p.state in (ProcState.READY, ProcState.BLOCKED):
                try:
                    p._go.release()
                except RuntimeError:
                    pass  # baton already handed over by an earlier abort


class _Abort(BaseException):
    """Internal: unwinds a rank thread after another rank failed."""
