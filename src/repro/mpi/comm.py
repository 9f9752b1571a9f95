"""Communicators and point-to-point messaging.

The programming model mirrors mpi4py: an SPMD function receives a
:class:`Comm` whose ``rank``/``size`` identify it, and calls ``send`` /
``recv`` / the collectives in :mod:`repro.mpi.collectives`.  Under the hood
each rank is a :class:`repro.sim.Proc`; message timing comes from the
machine's interconnect model (NIC contention, latency) and message *data* is
physically copied, so communication bugs corrupt data and get caught by
tests rather than hiding behind a pure cost model.  A payload the sender
builds only to send it is handed over instead (:class:`Moved`): same wire
size, no copy.

Sends are eager: the sender charges a software overhead and its NIC egress
occupancy, then proceeds; the receiver blocks until the message's arrival
time.  This matches what ROMIO-era MPI implementations did for the message
sizes two-phase I/O produces, and it keeps the simulation deadlock-behaviour
simple (a recv with no matching send ever posted deadlocks, as in MPI).

A job has one communicator: ``rank`` is the engine rank and ``size`` the
number of ranks.  The I/O stack needs no more -- two-phase collective I/O,
independent block I/O, the sample sort and the rank-0 funnel all run on the
whole job.

Every receive names its source and tag and takes no schedule point: it reads
only this rank's mailbox and takes the first message that one sender posted
with that tag (that sender's program order, whatever the interleaving), the
clock becomes ``max(clock, arrival) + overhead``, and nobody can observe
whether the message was consumed -- it commutes with all the other ranks do.
Only posts take one (docs/architecture.md s.1).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from ..sim.engine import Engine, Proc, ProcState
from ..topology.machine import Machine

__all__ = ["Comm", "Message", "Moved", "payload_nbytes", "MpiWorld"]

# Collective-internal tags cycle through [_USER_TAG_LIMIT, _INTERNAL_TAG_BASE);
# a send takes only tags below them, so the two never collide.
_INTERNAL_TAG_BASE = 1 << 20
_USER_TAG_LIMIT = _INTERNAL_TAG_BASE - (1 << 16)


def payload_nbytes(obj: Any) -> int:
    """Wire size of a message payload.

    numpy arrays and byte strings travel at their buffer size; any other
    Python object is costed at its pickle size (as mpi4py does for
    lowercase-method communication).
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# Barrier tokens are posted tens of thousands of times per run.
_NONE_NBYTES = len(pickle.dumps(None, protocol=pickle.HIGHEST_PROTOCOL))


class Moved:
    """A payload handed over to a send: the sender neither reads nor writes
    ``obj`` after the call.

    It travels at the wire size of ``obj`` and the receiver gets ``obj``
    itself, not a snapshot.  :meth:`Comm.send`, ``alltoall`` (its own slot
    too) and ``scatter`` (the root's entries) take it, for a payload built
    only to be sent.
    """

    __slots__ = ("obj",)

    def __init__(self, obj: Any):
        self.obj = obj


class _ByteCounter:
    """A ``Pickler`` sink that keeps the length of the stream and nothing else."""

    nbytes = 0

    def write(self, data) -> None:
        # ``len`` is not enough: the C pickler hands a >= 64 KiB buffer over
        # as the ``PickleBuffer`` itself (uncopied), which has no length.
        self.nbytes += memoryview(data).nbytes


def _pickle_nbytes(obj: Any) -> int:
    """``len(pickle.dumps(obj, HIGHEST_PROTOCOL))`` without building the
    blob: the same opcodes and frames, written into a counting sink."""
    sink = _ByteCounter()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return sink.nbytes


def _immutable(x: Any) -> bool:
    """Whether no sender-side mutation can reach ``x``: ``None``, numbers,
    ``str``, ``bytes`` and tuples of them."""
    if x is None or isinstance(x, (bool, int, float, str, bytes)):
        return True
    if isinstance(x, tuple):
        return all(_immutable(i) for i in x)
    return False


def _wire_copy(obj: Any) -> tuple[int, Any]:
    """``payload_nbytes(obj)`` and a snapshot of ``obj`` that aliases none of
    it (sender-side mutation must not reach the message), in one pass.

    A :class:`Moved` payload is its own snapshot: its object is sized and
    delivered as it is.  An immutable one is shared, and a list of them
    copied shallowly; either is sized by its pickle, with no ``loads``.

    Any other object is pickled once, its contiguous arrays taken out of
    band.  With no such array the stream *is* the in-band pickle: its length
    is the wire size and ``loads`` of it the snapshot.  Otherwise the bulk
    bytes are never serialised: the in-band length comes from
    :func:`_pickle_nbytes` and the snapshot is rebuilt over one copy of each
    buffer.
    """
    if type(obj) is Moved:
        obj = obj.obj
        if isinstance(obj, (np.ndarray, bytes, bytearray, memoryview)):
            return payload_nbytes(obj), obj
        return _pickle_nbytes(obj), obj
    if isinstance(obj, np.ndarray):
        return obj.nbytes, obj.copy()
    if isinstance(obj, (bytearray, memoryview)):
        return len(obj), bytes(obj)
    if isinstance(obj, bytes):
        return len(obj), obj
    if obj is None:
        return _NONE_NBYTES, None
    if _immutable(obj):
        return payload_nbytes(obj), obj
    if type(obj) is list and all(map(_immutable, obj)):
        return payload_nbytes(obj), obj[:]
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(
        obj, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append
    )
    if not buffers:
        return len(blob), pickle.loads(blob)
    # raw(): the buffer's memory as it lies (an F-ordered array exports its
    # transpose); bytes keep a read-only array read-only, as in-band does.
    copies = [
        bytes(raw) if raw.readonly else bytearray(raw)
        for raw in map(pickle.PickleBuffer.raw, buffers)
    ]
    return _pickle_nbytes(obj), pickle.loads(blob, buffers=copies)


@dataclass(slots=True)
class Message:
    """An in-flight or queued message."""

    src: int
    tag: int
    payload: Any
    arrival: float


class _RecvWait(NamedTuple):
    """The receive a blocked rank is parked in (``Proc.waiting_on``)."""

    source: int
    tag: int
    #: The collective the receive belongs to ("" for a point-to-point one).
    within: str = ""

    def __str__(self) -> str:
        prefix = f"{self.within}: " if self.within else ""
        return f"{prefix}recv(source={self.source}, tag={self.tag})"


@dataclass
class MpiWorld:
    """Shared state for one MPI 'job': mailboxes and the machine binding."""

    engine: Engine
    machine: Machine
    #: Each rank's queued messages, in post order.
    mailboxes: list[list[Message]] = field(init=False, repr=False)
    #: When True, collectives use the batched rendezvous engine
    #: (:mod:`repro.mpi.batch`) instead of per-message algorithms.
    batch_collectives: bool = False
    #: Open collectives: batched rendezvous keyed by (kind, call seq), see
    #: repro.mpi.batch; per-message schedules keyed by the call seq, see
    #: repro.mpi.collectives.
    rendezvous: dict = field(default_factory=dict, init=False, repr=False)
    #: The node of every engine rank (``Machine.node_of``), built once here.
    nodes: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.mailboxes = [[] for _ in range(self.engine.nprocs)]
        self.nodes = [self.machine.node_of(r) for r in range(self.engine.nprocs)]


class Comm:
    """The job's communicator, bound to one rank (mpi4py-style handle).

    Every rank holds its own ``Comm`` instance; all of them share one
    :class:`MpiWorld`.
    """

    def __init__(self, world: MpiWorld, proc: Proc):
        self.world = world
        self.proc = proc
        #: This process's engine rank, and the number of ranks in the job.
        self.rank = proc.rank
        self.size = world.engine.nprocs
        self._node = world.nodes[proc.rank]
        self._box = world.mailboxes[proc.rank]
        # Deterministic internal tag sequence; identical across ranks because
        # collectives must be called in the same order on every rank.
        self._coll_seq = 0

    # -- identity ----------------------------------------------------------

    @property
    def machine(self) -> Machine:
        return self.world.machine

    @property
    def clock(self) -> float:
        """This rank's virtual clock (seconds)."""
        return self.proc.clock

    # -- timing helpers ------------------------------------------------------

    def compute(self, seconds: float) -> None:
        """Charge local compute time."""
        self.proc.advance(seconds)

    def _sw_overhead(self) -> float:
        # Software send/recv overhead, tied to the interconnect class.
        return self.world.machine.network.latency

    # -- point-to-point --------------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking (eager) send of ``obj`` to rank ``dest``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        if not 0 <= tag < _USER_TAG_LIMIT:
            raise ValueError(
                f"tag {tag} outside the user tag range [0, {_USER_TAG_LIMIT})"
            )
        self._post(obj, dest, tag)

    def _post(self, obj: Any, dest: int, tag: int) -> None:
        nbytes, payload = _wire_copy(obj)
        self.proc.schedule_point()
        self._book(nbytes, payload, dest, tag)

    def _book(self, nbytes: int, payload: Any, dest: int, tag: int) -> None:
        """The booking half of a post of a snapshot: network transfer,
        mailbox, wake.  The caller has put it in the global ``(clock, rank)``
        order -- ``_post`` by a schedule point, a collective's replay by
        construction (:mod:`repro.mpi.collectives`)."""
        world = self.world
        arrival = self._ship(nbytes, world.nodes[dest])
        world.mailboxes[dest].append(Message(self.rank, tag, payload, arrival))
        target = world.engine.procs[dest]
        if target.state is not ProcState.BLOCKED:
            return  # not parked: a READY rank's heap entry is already live
        # A rank parked in a receive this message cannot satisfy would only
        # re-scan and re-block; anything else blocked is woken as ever.
        want = target.waiting_on
        if want is None or (want.source == self.rank and want.tag == tag):
            target.wake()

    def _ship(self, nbytes: int, dest_node: int) -> float:
        """Book ``nbytes`` to ``dest_node`` on the interconnect and charge this
        rank's send overhead; returns the message's arrival time."""
        proc = self.proc
        net = self.world.machine.network
        arrival = net.transfer(proc.clock, self._node, dest_node, nbytes)
        proc.clock += net.latency  # >= 0, checked by the Network
        return arrival

    def _deliver(self, arrival: float) -> None:
        """Receive a message that arrives at ``arrival``: the clock becomes
        ``max(clock, arrival) + overhead``."""
        proc = self.proc
        proc.clock = max(proc.clock, arrival) + self.world.machine.network.latency

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive of the next message from ``source`` with ``tag``;
        returns the payload."""
        if not 0 <= source < self.size:
            raise ValueError(f"source {source} out of range for size {self.size}")
        while True:
            msg = self._take(source, tag)
            if msg is not None:
                return msg.payload
            self._park(source, tag)

    def _take(self, source: int, tag: int) -> Optional[Message]:
        """Consume the oldest queued message from ``source`` with ``tag``, if
        any (the mailbox is in post order)."""
        box = self._box
        for i, msg in enumerate(box):
            if msg.src == source and msg.tag == tag:
                del box[i]
                self._deliver(msg.arrival)
                return msg
        return None

    def _park(self, source: int, tag: int, within: str = "") -> None:
        """Block until a post that matches the receive wakes this rank."""
        proc = self.proc
        proc.waiting_on = _RecvWait(source, tag, within)
        proc.block()
        proc.waiting_on = None

    # -- internal tags for collectives ---------------------------------------------

    def _next_internal_tag(self) -> int:
        """A tag all ranks agree on for the current collective call."""
        self._coll_seq += 1
        return _INTERNAL_TAG_BASE - 1 - (self._coll_seq % (1 << 16))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm rank={self.rank}/{self.size} t={self.clock:.6f}>"
