"""Collective operations over point-to-point messaging.

Algorithms follow the classic MPICH choices of the paper's era: binomial
trees for bcast/reduce/gather/scatter, a dissemination barrier, ring
allgather, and pairwise-exchange alltoall.  Every message is booked through
the interconnect model (``Comm._ship`` -> ``Network.transfer``), so their
cost falls out of the model rather than being asserted.

Each algorithm is written once, as a per-rank *schedule*: a generator that
yields ``("post", dest, obj)`` and ``payload = yield ("recv", src)`` steps
and returns the rank's result.  :func:`_run` is the one driver:

* until the last member enters, each rank steps its own schedule in its own
  thread, exactly as a hand-written send/recv loop would: a post is a
  schedule point followed by the booking, a receive takes from the mailbox
  or parks;
* the last member to enter then steps *every* member's schedule
  thread-free, in the engine's own order: run each rank through the
  receives it can already satisfy, then book the post with the smallest
  ``(clock, rank)`` -- the order the threads would have found (a post to a
  member whose pending step receives from the poster is handed straight to
  it, no mailbox in between).  It stops before a post that a returned
  member could precede (one that finished inside the replay keyed at its
  exit clock, a READY one outside it at its ``(clock, rank)``), wakes every
  member still inside, and the threads carry on from where the replay left
  their schedules.

So the replay moves no clock, byte or link timeline; it only saves thread
hand-offs (docs/architecture.md s.1 has the argument).  An exception raised
while the replay steps another member's schedule is handed to that member's
thread, which raises it, so the job fails as that rank.

Every function is collective: all ranks of the job must call it in the
same order (this is also how the internal tag agreement works).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional, Sequence

import numpy as np

from ..sim.engine import ProcState
from . import batch as _batch
from .comm import _NONE_NBYTES, Comm, _RecvWait, _wire_copy

__all__ = [
    "barrier",
    "bcast",
    "gather",
    "gatherv",
    "scatter",
    "scatterv",
    "allgather",
    "alltoall",
    "alltoallv",
    "reduce",
    "allreduce",
    "exscan",
    "SUM",
]


def SUM(a, b):
    """Elementwise / scalar sum reduction operator."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.add(a, b)
    return a + b


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _rrank(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


# -- the driver -----------------------------------------------------------------

_Schedule = Generator[tuple, Any, Any]

#: Sorts after every ``(clock, rank)`` key.
_NEVER = (float("inf"), 0)


class _Collective:
    """One in-flight collective: every member's schedule and where it stands.

    ``steps[r]`` is member ``r``'s pending step -- ``("post", dest, nbytes,
    payload)`` with the payload already snapshotted, or ``("recv", src)`` --
    and ``None`` once its schedule has returned (or failed).  Every post
    step is a fresh tuple, so a thread back from the schedule point before
    its post can tell by identity whether the replay booked it meanwhile.
    ``comms[r]`` is cleared when member ``r``'s thread leaves :func:`_run`.
    """

    __slots__ = ("name", "tag", "comms", "gens", "steps", "results", "errors",
                 "entered")

    def __init__(self, name: str, tag: int, size: int):
        self.name = name
        self.tag = tag
        self.comms: list[Optional[Comm]] = [None] * size
        self.gens: list[Optional[_Schedule]] = [None] * size
        self.steps: list[Optional[tuple]] = [None] * size
        self.results: list = [None] * size
        self.errors: list[Optional[BaseException]] = [None] * size
        self.entered = 0

    def advance(self, r: int, value: Any = None) -> None:
        """Step member ``r``'s schedule past its pending step."""
        try:
            step = self.gens[r].send(value)
        except StopIteration as stop:
            self.steps[r] = self.gens[r] = None
            self.results[r] = stop.value
            return
        if step[0] == "post":
            obj = step[2]
            if obj is None:  # a barrier token
                step = ("post", step[1], _NONE_NBYTES, None)
            else:
                step = ("post", step[1], *_wire_copy(obj))
        self.steps[r] = step

    def replay(self, me: int) -> None:
        """Step every member's schedule from the last member's thread (``me``),
        in global ``(clock, rank)`` order, until done or until a rank outside
        the replay could post first; then wake every member still inside."""
        comms, steps, tag = self.comms, self.steps, self.tag
        inside = [r for r, comm in enumerate(comms) if comm is not None]
        # The only ranks outside the replay are members that have returned;
        # a READY one posts nothing before its (clock, rank).
        bound = min(
            ((p.clock, p.rank) for p in comms[me].world.engine.procs
             if p.state is ProcState.READY and comms[p.rank] is None),
            default=_NEVER,
        )
        posting: list[tuple] = []  # heap of (clock, rank)

        def settle(r: int) -> None:
            """Run ``r`` through the receives it can already satisfy."""
            nonlocal bound
            comm = comms[r]
            step = steps[r]
            while step is not None and step[0] == "recv":
                msg = comm._take(step[1], tag)
                if msg is None:
                    return
                self.advance(r, msg.payload)
                step = steps[r]
            clock = comm.proc.clock
            if step is None:  # returns at this clock once woken
                bound = min(bound, (clock, r))
            else:
                heappush(posting, (clock, r))

        who = me
        try:
            for who in inside:
                settle(who)
            while posting:
                key = heappop(posting)
                if key > bound:
                    break
                who = key[1]
                _, dest, nbytes, payload = steps[who]
                step = steps[dest]
                if step is not None and step[0] == "recv" and step[1] == who:
                    # ``dest`` waits for exactly this message, and settle
                    # left none from ``who`` queued: hand it straight over.
                    receiver = comms[dest]
                    arrival = comms[who]._ship(nbytes, receiver._node)
                    self.advance(who)
                    settle(who)
                    who = dest
                    receiver._deliver(arrival)
                    self.advance(dest, payload)
                    settle(dest)
                    continue
                comms[who]._book(nbytes, payload, dest, tag)
                self.advance(who)
                settle(who)
                step = steps[dest]
                if step is not None and step[0] == "recv":
                    who = dest
                    settle(dest)
        except Exception as exc:  # noqa: BLE001 - re-raised by its own thread
            self.errors[who] = exc
            self.steps[who] = None
        for r in inside:
            if r == me:
                continue
            comm = comms[r]
            step, proc = steps[r], comm.proc
            waits = step is not None and step[0] == "recv"
            if waits and proc.state is ProcState.BLOCKED:
                # Parked in a receive it still waits for, maybe another one:
                # the post that satisfies it wakes it.
                proc.waiting_on = _RecvWait(step[1], tag, self.name)
            else:
                proc.wake()


def _run(comm: Comm, name: str, schedule: _Schedule) -> Any:
    """Run this rank's ``schedule`` of collective ``name``; returns its result."""
    tag = comm._next_internal_tag()
    size = comm.size
    table = comm.world.rendezvous
    key = comm._coll_seq
    op = table.get(key)
    if op is None:
        op = table[key] = _Collective(name, tag, size)
    r = comm.rank
    op.comms[r] = comm
    op.gens[r] = schedule
    op.advance(r)
    op.entered += 1
    if op.entered == size:
        del table[key]  # every member holds it now
        op.replay(r)
    proc = comm.proc
    steps = op.steps
    while True:
        step = steps[r]
        if step is None:
            break
        if step[0] == "post":
            proc.schedule_point()
            if steps[r] is step:  # else the replay booked it meanwhile
                _, dest, nbytes, payload = step
                comm._book(nbytes, payload, dest, tag)
                op.advance(r)
        else:
            msg = comm._take(step[1], tag)
            if msg is not None:
                op.advance(r, msg.payload)
            else:
                comm._park(step[1], tag, name)
    op.comms[r] = None
    error = op.errors[r]
    if error is not None:
        raise error
    result, op.results[r] = op.results[r], None
    return result


# -- the schedules ---------------------------------------------------------------


def _barrier(rank: int, size: int) -> _Schedule:
    """Dissemination: ceil(log2 P) rounds of pairwise messages."""
    step = 1
    while step < size:
        yield "post", (rank + step) % size, None
        yield "recv", (rank - step) % size
        step <<= 1


def _bcast(rank: int, size: int, obj: Any, root: int) -> _Schedule:
    v = _vrank(rank, root, size)
    # Phase 1: everyone but the root receives from the rank that differs in
    # v's lowest set bit.
    mask = 1
    while mask < size:
        if v & mask:
            obj = yield "recv", _rrank(v - mask, root, size)
            break
        mask <<= 1
    # Phase 2: forward down the tree with decreasing mask.
    mask >>= 1
    while mask > 0:
        if v + mask < size:
            yield "post", _rrank(v + mask, root, size), obj
        mask >>= 1
    return obj


def _gather(rank: int, size: int, obj: Any, root: int) -> _Schedule:
    v = _vrank(rank, root, size)
    # Accumulate (rank, obj) pairs up the tree.
    acc = [(rank, obj)]
    mask = 1
    while mask < size:
        if v & mask:
            yield "post", _rrank(v & ~mask, root, size), acc
            return None
        src_v = v | mask
        if src_v < size:
            acc.extend((yield "recv", _rrank(src_v, root, size)))
        mask <<= 1
    out: list = [None] * size
    for r, o in acc:
        out[r] = o
    return out


def _scatter(
    rank: int, size: int, objs: Optional[Sequence[Any]], root: int
) -> _Schedule:
    if rank == root:
        if objs is None or len(objs) != size:
            raise ValueError("root must supply one object per rank")
        bundle = {r: objs[r] for r in range(size)}
    else:
        bundle = None
    v = _vrank(rank, root, size)
    mask = 1
    while mask < size:
        if v & mask:
            bundle = yield "recv", _rrank(v - mask, root, size)
            break
        mask <<= 1
    # Forward: child at v+mask owns virtual ranks [v+mask, v+2*mask).
    mask >>= 1
    while mask > 0:
        if v + mask < size:
            lo, hi = v + mask, min(v + (mask << 1), size)
            sub = {}
            for x in range(lo, hi):
                r = _rrank(x, root, size)
                if r in bundle:
                    sub[r] = bundle.pop(r)
            yield "post", _rrank(lo, root, size), sub
        mask >>= 1
    return bundle[rank]


def _allgather(rank: int, size: int, obj: Any) -> _Schedule:
    """Ring: P - 1 steps, each passing the last block received to the right."""
    out: list = [None] * size
    out[rank] = obj
    right = (rank + 1) % size
    left = (rank - 1) % size
    carry = (rank, obj)
    for _ in range(size - 1):
        yield "post", right, carry
        carry = yield "recv", left
        out[carry[0]] = carry[1]
    return out


def _alltoall(rank: int, size: int, objs: Sequence[Any]) -> _Schedule:
    """Pairwise exchange: step s sends to rank + s, receives from rank - s."""
    out: list = [None] * size
    out[rank] = objs[rank]
    for step in range(1, size):
        dest = (rank + step) % size
        src = (rank - step) % size
        yield "post", dest, objs[dest]
        out[src] = yield "recv", src
    return out


def _reduce(rank: int, size: int, obj: Any, op: Callable, root: int) -> _Schedule:
    v = _vrank(rank, root, size)
    acc = obj
    mask = 1
    while mask < size:
        if v & mask:
            yield "post", _rrank(v & ~mask, root, size), acc
            return None
        src_v = v | mask
        if src_v < size:
            acc = op(acc, (yield "recv", _rrank(src_v, root, size)))
        mask <<= 1
    return acc


# -- the collectives --------------------------------------------------------------


def barrier(comm: Comm) -> None:
    """Dissemination barrier: ceil(log2 P) rounds of pairwise messages."""
    if _batch.batch_enabled(comm):
        return _batch.barrier(comm)
    _run(comm, "barrier", _barrier(comm.rank, comm.size))


def bcast(comm: Comm, obj: Any, root: int = 0) -> Any:
    """Binomial-tree broadcast; returns the object on every rank."""
    if _batch.batch_enabled(comm):
        return _batch.bcast(comm, obj, root)
    return _run(comm, "bcast", _bcast(comm.rank, comm.size, obj, root))


def gather(comm: Comm, obj: Any, root: int = 0) -> Optional[list]:
    """Binomial-tree gather; root returns the list indexed by rank."""
    if _batch.batch_enabled(comm):
        return _batch.gather(comm, obj, root)
    return _run(comm, "gather", _gather(comm.rank, comm.size, obj, root))


def gatherv(comm: Comm, obj: Any, root: int = 0) -> Optional[list]:
    """Alias of :func:`gather` (payloads may differ in size)."""
    return gather(comm, obj, root)


def scatter(comm: Comm, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
    """Binomial-tree scatter of ``objs`` (length ``size``, root only)."""
    if _batch.batch_enabled(comm):
        return _batch.scatter(comm, objs, root)
    return _run(comm, "scatter", _scatter(comm.rank, comm.size, objs, root))


def scatterv(comm: Comm, objs: Optional[Sequence[Any]], root: int = 0) -> Any:
    """Alias of :func:`scatter` (payloads may differ in size)."""
    return scatter(comm, objs, root)


def allgather(comm: Comm, obj: Any) -> list:
    """Ring allgather; every rank returns the list indexed by rank."""
    if _batch.batch_enabled(comm):
        return _batch.allgather(comm, obj)
    return _run(comm, "allgather", _allgather(comm.rank, comm.size, obj))


def alltoall(comm: Comm, objs: Sequence[Any]) -> list:
    """Pairwise-exchange alltoall: ``objs[d]`` goes to rank ``d``."""
    if _batch.batch_enabled(comm):
        return _batch.alltoall(comm, objs)
    if len(objs) != comm.size:
        raise ValueError("alltoall needs one object per rank")
    return _run(comm, "alltoall", _alltoall(comm.rank, comm.size, objs))


def alltoallv(comm: Comm, objs: Sequence[Any]) -> list:
    """Alias of :func:`alltoall` (payloads may differ in size)."""
    return alltoall(comm, objs)


def reduce(
    comm: Comm, obj: Any, op: Callable[[Any, Any], Any] = SUM, root: int = 0
) -> Any:
    """Binomial-tree reduction to ``root`` (returns None elsewhere)."""
    if _batch.batch_enabled(comm):
        return _batch.reduce(comm, obj, op, root)
    return _run(comm, "reduce", _reduce(comm.rank, comm.size, obj, op, root))


def allreduce(comm: Comm, obj: Any, op: Callable[[Any, Any], Any] = SUM) -> Any:
    """Reduce to rank 0, then broadcast the result."""
    return bcast(comm, reduce(comm, obj, op, root=0), root=0)


def exscan(comm: Comm, value, op: Callable = SUM):
    """Exclusive prefix scan.

    Rank ``r`` returns ``op(values[0], ..., values[r-1])``; rank 0 returns
    ``0`` for :func:`SUM` and ``None`` for other operators.  Implemented via
    allgather for clarity -- the payloads the I/O layers scan are scalars.
    """
    values = allgather(comm, value)
    if op is SUM:
        return sum(values[: comm.rank])
    acc = None
    for v in values[: comm.rank]:
        acc = v if acc is None else op(acc, v)
    return acc
