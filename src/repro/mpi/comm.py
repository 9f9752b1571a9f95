"""Communicators and point-to-point messaging.

The programming model mirrors mpi4py: an SPMD function receives a
:class:`Comm` whose ``rank``/``size`` identify it, and calls ``send`` /
``recv`` / the collectives in :mod:`repro.mpi.collectives`.  Under the hood
each rank is a :class:`repro.sim.Proc`; message timing comes from the
machine's interconnect model (NIC contention, latency) and message *data* is
physically copied, so communication bugs corrupt data and get caught by
tests rather than hiding behind a pure cost model.

Sends are eager: the sender charges a software overhead and its NIC egress
occupancy, then proceeds; the receiver blocks until the message's arrival
time.  This matches what ROMIO-era MPI implementations did for the message
sizes two-phase I/O produces, and it keeps the simulation deadlock-behaviour
simple (a recv with no matching send ever posted deadlocks, as in MPI).

A *blocking* receive from a *named* source takes no schedule point: it
reads only this rank's mailbox and takes the first message that one sender
posted (that sender's program order, whatever the interleaving), the clock
becomes ``max(clock, arrival) + overhead``, and nobody can observe whether
the message was consumed -- it commutes with all the other ranks do.  Posts,
``ANY_SOURCE`` receives and polls keep theirs (docs/architecture.md s.1).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from ..sim.engine import Engine, Proc, ProcState
from ..topology.machine import Machine

__all__ = ["Comm", "Message", "ANY_SOURCE", "ANY_TAG", "payload_nbytes", "MpiWorld"]

ANY_SOURCE = -1
ANY_TAG = -1

# Communicator-internal tags (collectives, MPI-IO) live above this base so
# they never collide with user tags.
_INTERNAL_TAG_BASE = 1 << 20


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


class _ByteCounter:
    """A ``Pickler`` sink that keeps the length of the stream and nothing else."""

    nbytes = 0

    def write(self, data) -> None:
        # ``len`` is not enough: the C pickler hands a >= 64 KiB buffer over
        # as the ``PickleBuffer`` itself (uncopied), which has no length.
        self.nbytes += memoryview(data).nbytes


def _wire_copy(obj: Any) -> tuple[int, Any]:
    """``payload_nbytes(obj)`` and a snapshot of ``obj`` that aliases none of
    it (sender-side mutation must not reach the message), in one pass.

    A generic object is pickled once, its contiguous arrays taken out of
    band.  With no such array the stream *is* the in-band pickle: its length
    is the wire size and ``loads`` of it the snapshot.  Otherwise the bulk
    bytes are never serialised: the in-band length comes from a pickler
    writing into a counting sink -- the same opcodes and frames as
    ``dumps``, only the destination differs -- and the snapshot is rebuilt
    over one copy of each buffer.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes, obj.copy()
    if isinstance(obj, (bytearray, memoryview)):
        return len(obj), bytes(obj)
    if isinstance(obj, bytes):
        return len(obj), obj
    if obj is None:
        return _NONE_NBYTES, None
    buffers: list[pickle.PickleBuffer] = []
    blob = pickle.dumps(
        obj, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append
    )
    if not buffers:
        if isinstance(obj, (int, float, str, bool)):
            return len(blob), obj
        return len(blob), pickle.loads(blob)
    sink = _ByteCounter()
    pickle.Pickler(sink, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    # raw(): the buffer's memory as it lies (an F-ordered array exports its
    # transpose); bytes keep a read-only array read-only, as in-band does.
    copies = [
        bytes(raw) if raw.readonly else bytearray(raw)
        for raw in map(pickle.PickleBuffer.raw, buffers)
    ]
    return sink.nbytes, pickle.loads(blob, buffers=copies)


@dataclass(slots=True)
class Message:
    """An in-flight or queued message."""

    src: int
    tag: int
    payload: Any
    arrival: float
    seq: int


class _RecvWait(NamedTuple):
    """The receive a blocked rank is parked in (``Proc.waiting_on``)."""

    comm: "Comm"
    source: int
    tag: int
    #: The collective the receive belongs to ("" for a point-to-point one).
    within: str = ""

    def __str__(self) -> str:
        source = "ANY_SOURCE" if self.source == ANY_SOURCE else self.source
        tag = "ANY_TAG" if self.tag == ANY_TAG else self.tag
        prefix = f"{self.within}: " if self.within else ""
        return f"{prefix}recv(source={source}, tag={tag})"


@dataclass
class MpiWorld:
    """Shared state for one MPI 'job': mailboxes and the machine binding."""

    engine: Engine
    machine: Machine
    mailboxes: list[list[Message]] = field(default_factory=list)
    _seq: int = 0
    #: When True, collectives use the batched rendezvous engine
    #: (:mod:`repro.mpi.batch`) instead of per-message algorithms.
    batch_collectives: bool = False
    #: Open collectives: batched rendezvous keyed by (ctx, kind, tag, call
    #: seq), see repro.mpi.batch; per-message schedules keyed by (ctx, call
    #: seq, first member), see repro.mpi.collectives.
    rendezvous: dict = field(default_factory=dict)
    #: The node of every engine rank (``Machine.node_of``), built once here.
    nodes: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.mailboxes:
            self.mailboxes = [[] for _ in range(self.engine.nprocs)]
        self.nodes = [self.machine.node_of(r) for r in range(self.engine.nprocs)]

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq


class Comm:
    """An MPI communicator bound to one rank (mpi4py-style handle).

    Every rank holds its own ``Comm`` instance; instances of the same
    communicator share a :class:`MpiWorld` and a group of engine ranks.
    """

    def __init__(
        self,
        world: MpiWorld,
        proc: Proc,
        group: Optional[list[int]] = None,
        _ctx: int = 0,
    ):
        self.world = world
        self.proc = proc
        # group maps communicator rank -> engine (world) rank.
        self.group = group if group is not None else list(range(world.engine.nprocs))
        self._world_to_local = {w: l for l, w in enumerate(self.group)}
        if proc.rank not in self._world_to_local:
            raise ValueError(f"engine rank {proc.rank} is not in this communicator")
        #: This process's rank within the communicator, and its size.
        self.rank = self._world_to_local[proc.rank]
        self.size = len(self.group)
        self._node = world.nodes[proc.rank]
        self._box = world.mailboxes[proc.rank]
        # Context id separates traffic of different communicators.
        self._ctx = _ctx
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
        """Blocking (eager) send of ``obj`` to communicator rank ``dest``."""
        if not 0 <= dest < self.size:
            raise ValueError(f"dest {dest} out of range for size {self.size}")
        if tag < 0:
            raise ValueError("tag must be >= 0 on send")
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
        dest_world = self.group[dest]
        arrival = self._ship(nbytes, world.nodes[dest_world])
        msg = Message(self.rank, tag + self._ctx, payload, arrival, world.next_seq())
        world.mailboxes[dest_world].append(msg)
        target = world.engine.procs[dest_world]
        if target.state is not ProcState.BLOCKED:
            return  # not parked: a READY rank's heap entry is already live
        # A rank parked in a receive this message cannot satisfy would only
        # re-scan and re-block; anything else blocked is woken as ever.
        want = target.waiting_on
        if want is None or want.comm._match((msg,), want.source, want.tag):
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

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive; returns the payload."""
        obj, _status = self.recv_with_status(source, tag)
        return obj

    def recv_with_status(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> tuple[Any, tuple[int, int]]:
        """Receive and also return ``(source_rank, tag)`` of the message."""
        while True:
            match = self._take(source, tag, yield_first=source == ANY_SOURCE)
            if match is not None:
                return match.payload, (match.src, match.tag - self._ctx)
            self._park(source, tag)

    def _take(self, source: int, tag: int, *, yield_first: bool) -> Optional[Message]:
        """Consume the first matching queued message, if any; ``yield_first``
        puts the scan in the global ``(clock, rank)`` order."""
        proc = self.proc
        if yield_first:
            proc.schedule_point()
        box = self._box
        if not box:
            return None
        match = self._match(box, source, tag)
        if match is not None:
            box.remove(match)
            self._deliver(match.arrival)
        return match

    def _park(self, source: int, tag: int, within: str = "") -> None:
        """Block until a post that matches the receive wakes this rank."""
        proc = self.proc
        proc.waiting_on = _RecvWait(self, source, tag, within)
        proc.block()
        proc.waiting_on = None

    def _match(
        self, box: list[Message], source: int, tag: int
    ) -> Optional[Message]:
        want_tag = None if tag == ANY_TAG else tag + self._ctx
        lo, hi = self._ctx, self._ctx + _INTERNAL_TAG_BASE
        best: Optional[Message] = None
        for m in box:
            if not (lo <= m.tag < hi):
                continue  # different communicator context
            if source != ANY_SOURCE and m.src != source:
                continue
            if want_tag is not None and m.tag != want_tag:
                continue
            if best is None or m.seq < best.seq:
                best = m
        return best

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        sendtag: int = 0,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
    ) -> Any:
        """Combined send+receive (deadlock-free pairwise exchange)."""
        self._post(obj, dest, sendtag)
        return self.recv(source, recvtag)

    # -- communicator management -----------------------------------------------

    def split(self, color: int, key: int = 0) -> Optional["Comm"]:
        """Create sub-communicators by color, ordered by (key, rank).

        Collective over the parent communicator.  Ranks passing
        ``color=None`` get ``None`` back (like ``MPI_UNDEFINED``).
        """
        from .collectives import allgather

        entries = allgather(self, (color, key, self.rank))
        if color is None:
            return None
        members = sorted(
            (k, r) for (c, k, r) in entries if c == color
        )
        group = [self.group[r] for _, r in members]
        # Derive a fresh context deterministically from parent ctx and color.
        ctx = self._ctx + _INTERNAL_TAG_BASE * (2 + color)
        return Comm(self.world, self.proc, group=group, _ctx=ctx)

    def dup(self) -> "Comm":
        """Duplicate the communicator with a fresh context."""
        from .collectives import allgather

        allgather(self, 0)  # synchronising, like MPI_Comm_dup
        dup = Comm(self.world, self.proc, group=list(self.group), _ctx=self._ctx)
        dup._ctx = self._ctx + _INTERNAL_TAG_BASE
        return dup

    # -- internal tags for collectives / MPI-IO -----------------------------------

    def _next_internal_tag(self) -> int:
        """A tag all ranks agree on for the current collective call."""
        self._coll_seq += 1
        return _INTERNAL_TAG_BASE - 1 - (self._coll_seq % (1 << 16))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Comm rank={self.rank}/{self.size} t={self.clock:.6f}>"
