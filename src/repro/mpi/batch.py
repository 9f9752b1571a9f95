"""Batched collectives: one rendezvous per collective, O(P) schedule crossings.

The per-message algorithms in :mod:`repro.mpi.collectives` are faithful to
the paper's era but cost O(P^2) simulated messages for alltoall/allgather --
at P=1024 a single alltoall is ~1M mailbox operations, which puts weak-scaling
sweeps out of reach no matter how fast each message is.  This module trades
per-message emulation for a *rendezvous*: every rank arrives once (one
schedule-point crossing), the last arriver computes all ranks' results and
completion times from closed-form models of the same algorithms (dissemination
barrier, binomial trees, ring allgather, pairwise alltoall), and wakes
everyone.  Context switches per collective drop from O(P log P .. P^2) to O(P).

Fidelity contract:

* **data** is byte-identical to the per-message path: payloads are
  snapshotted (no sender aliasing) unless handed over
  (:class:`~repro.mpi.comm.Moved`), and delivered to exactly the ranks the
  real algorithm would deliver them to;
* **timing** is modeled, not emulated: completion times use the same latency
  / software-overhead / bandwidth parameters and the same round structure,
  but do not book per-message NIC occupancy, so transient link contention
  between a collective and unrelated point-to-point traffic is not captured.
  Reductions fold in rank order (the tree folds in tree order), which can
  differ in the last float bit; the I/O stack only reduces ints and bools.
* every batched collective is synchronizing (all ranks leave at or after the
  last arrival), a slight strengthening of gather/scatter/bcast semantics.

The mode is **off by default** and never enabled on the pinned-digest
regression cells; ``repro scale`` turns it on for all 20 of its cells.  It
moves simulated time (per-cell table in docs/architecture.md section 1:
``write_s`` 0.33x-1.12x, two paper trends inverted), which is why the
per-message path carries the pinned cells -- a recorded modelling choice
guarded by ``tests/test_batched_divergence.py``.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Sequence

import numpy as np

from .comm import _NONE_NBYTES, Comm, _immutable, _wire_copy, payload_nbytes

__all__ = ["batch_enabled"]


def batch_enabled(comm: Comm) -> bool:
    """Whether this job's collectives run through the rendezvous."""
    return comm.world.batch_collectives


def _log2_rounds(size: int) -> int:
    """ceil(log2(size)): rounds of a dissemination barrier / binomial tree."""
    return (size - 1).bit_length()


def _isolate(obj: Any) -> tuple[int | None, Any]:
    """``(wire size, copy)``: a copy no sender-side mutation can reach, and
    its wire size if making it took a serialisation pass (else ``None``:
    immutable payloads are shared, not copied).  A handed-over payload
    (:class:`~repro.mpi.comm.Moved`) is its own copy, sized on arrival by
    ``_wire_copy``."""
    if _immutable(obj):
        return None, obj
    if isinstance(obj, list) and all(_immutable(x) for x in obj):
        return None, obj[:]
    return _wire_copy(obj)


def _arrive(obj: Any) -> tuple[int, Any]:
    """A contribution with its wire size, so that ``combine`` does not
    serialise a second time what arrival already had to."""
    nbytes, copy = _isolate(obj)
    return payload_nbytes(copy) if nbytes is None else nbytes, copy


def _fanout(obj: Any, n: int) -> list:
    """``n`` mutation-isolated copies of ``obj`` (for bcast-like delivery)."""
    if _immutable(obj):
        return [obj] * n
    if isinstance(obj, np.ndarray):
        return [obj.copy() for _ in range(n)]
    if isinstance(obj, list) and all(_immutable(x) for x in obj):
        return [obj[:] for _ in range(n)]
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return [pickle.loads(blob) for _ in range(n)]


class _Rendezvous:
    """State of one in-flight batched collective."""

    __slots__ = ("contrib", "arrive", "results", "arrived", "taken")

    def __init__(self, size: int):
        self.contrib: list = [None] * size
        self.arrive: list = [0.0] * size
        self.results: list | None = None
        self.arrived = 0
        self.taken = 0


def _rendezvous(comm: Comm, kind: str, contribution: Any, combine) -> Any:
    """Arrive, contribute, and collect this rank's result.

    ``combine(comm, contribs, base) -> (results, done_times)`` runs exactly
    once, on the last-arriving rank, with ``base = max(arrival clocks)``;
    ``done_times[r] >= base`` is required (all collectives synchronize).
    The key includes the shared collective call sequence, so back-to-back
    collectives of the same kind never collide.
    """
    proc = comm.proc
    world = comm.world
    comm._next_internal_tag()  # advances the call sequence all ranks share
    key = (kind, comm._coll_seq)
    table = world.rendezvous
    rv = table.get(key)
    if rv is None:
        rv = table[key] = _Rendezvous(comm.size)
    rank = comm.rank
    proc.schedule_point()
    rv.contrib[rank] = contribution
    rv.arrive[rank] = proc.clock
    rv.arrived += 1
    if rv.arrived < comm.size:
        # The last arriver wakes us at our completion time; a point-to-point
        # post to this rank wakes it too, before there is anything to take.
        while rv.results is None:
            proc.block()
    else:
        base = max(rv.arrive)
        rv.results, done = combine(comm, rv.contrib, base)
        rv.contrib = [None] * comm.size  # release payload references
        engine_procs = world.engine.procs
        for r in range(comm.size):
            if r != rank:
                engine_procs[r].wake(at_time=done[r])
        proc.advance_to(done[rank])
    result = rv.results[rank]
    rv.results[rank] = None
    rv.taken += 1
    if rv.taken == comm.size:
        del table[key]
    return result


def _params(comm: Comm) -> tuple[float, float, float]:
    """(per-message latency, per-side software overhead, bandwidth)."""
    net = comm.machine.network
    return net.latency, comm._sw_overhead(), net.bandwidth


# -- the collectives ---------------------------------------------------------


def barrier(comm: Comm) -> None:
    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        t = base + _log2_rounds(comm.size) * (2 * sw + lat + _NONE_NBYTES / bw)
        return [None] * comm.size, [t] * comm.size

    _rendezvous(comm, "barrier", None, combine)


def bcast(comm: Comm, obj: Any, root: int = 0) -> Any:
    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        nbytes, obj = contribs[root]
        t = base + _log2_rounds(comm.size) * (2 * sw + lat + nbytes / bw)
        results = _fanout(obj, comm.size - 1)
        results.insert(root, obj)  # root keeps its own object
        return results, [t] * comm.size

    return _rendezvous(comm, "bcast", _arrive(obj) if comm.rank == root else None, combine)


def gather(comm: Comm, obj: Any, root: int = 0):
    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        inbound = sum(n for r, (n, _) in enumerate(contribs) if r != root)
        t = base + _log2_rounds(comm.size) * (2 * sw + lat) + inbound / bw
        results: list = [None] * comm.size
        results[root] = [o for _, o in contribs]
        return results, [t] * comm.size

    return _rendezvous(comm, "gather", _arrive(obj), combine)


def scatter(comm: Comm, objs, root: int = 0) -> Any:
    if comm.rank == root:
        if objs is None or len(objs) != comm.size:
            raise ValueError("root must supply one object per rank")
        contribution = [_arrive(o) for o in objs]
    else:
        contribution = None

    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        outbound = sum(n for r, (n, _) in enumerate(contribs[root]) if r != root)
        t = base + _log2_rounds(comm.size) * (2 * sw + lat) + outbound / bw
        return [o for _, o in contribs[root]], [t] * comm.size

    return _rendezvous(comm, "scatter", contribution, combine)


def allgather(comm: Comm, obj: Any) -> list:
    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        size = comm.size
        nbytes = [n for n, _ in contribs]
        total = sum(nbytes)
        rounds = (size - 1) * (2 * sw + lat)
        # Rank r receives everyone else's payload over the ring.
        done = [base + rounds + (total - nbytes[r]) / bw for r in range(size)]
        columns = [_fanout(o, size) for _, o in contribs]
        results = [list(row) for row in zip(*columns)]  # C-speed transpose
        return results, done

    return _rendezvous(comm, "allgather", _arrive(obj), combine)


def alltoall(comm: Comm, objs: Sequence[Any]) -> list:
    if len(objs) != comm.size:
        raise ValueError("alltoall needs one object per rank")
    # Rows are mostly None at scale; skip the snapshot call for those.  A
    # cell of immutable leaves (the two-phase read requests) is shared, not
    # copied, and sized in ``combine`` -- one thread pickling P x P cells in a
    # row reuses one warm buffer, P threads sizing their own rows at arrival
    # do not (measured at P = 1024: 1.8 s against 4.3 s per dump).  Any other
    # cell, a handed-over one included, arrives with the size its snapshot
    # or hand-over took.
    cells, sizes = [None] * comm.size, [_NONE_NBYTES] * comm.size
    for d, o in enumerate(objs):
        if o is not None:
            sizes[d], cells[d] = _isolate(o)
    contribution = (cells, sizes)

    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        size = comm.size
        send = [0] * size
        recv = [0] * size
        # C-speed transpose
        results = [list(row) for row in zip(*(cells for cells, _ in contribs))]
        for s, (row, sizes) in enumerate(contribs):
            for d, (cell, n) in enumerate(zip(row, sizes)):
                if s != d:
                    if n is None:
                        n = payload_nbytes(cell)
                    send[s] += n
                    recv[d] += n
        rounds = (size - 1) * (2 * sw + lat)
        done = [base + rounds + max(send[r], recv[r]) / bw for r in range(size)]
        return results, done

    return _rendezvous(comm, "alltoall", contribution, combine)


_PSET_ENV_NBYTES: int | None = None


def _pset_env_nbytes() -> int:
    """Pickle envelope of an empty ParticleSet (the per-cell wire cost the
    per-message sample sort pays even for empty buckets)."""
    global _PSET_ENV_NBYTES
    if _PSET_ENV_NBYTES is None:
        from ..amr.particles import ParticleSet

        _PSET_ENV_NBYTES = payload_nbytes(ParticleSet())
    return _PSET_ENV_NBYTES


def particle_exchange(comm: Comm, local, splitters) -> Any:
    """The sample sort's alltoall of ParticleSets, as one rendezvous.

    The per-message path builds a P x P matrix of ParticleSet buckets --
    O(P^2) Python objects and pickles even when almost every bucket is
    empty, which is what makes P >= 512 sorts infeasible.  Here every rank
    contributes its locally sorted set once and the combine buckets the
    *concatenation* with numpy (stable sort by destination), so the work is
    O(total particles) + O(P).

    Returns this rank's bucket: byte-identical to
    ``ParticleSet.concat(alltoall(comm, outgoing))`` -- a stable sort by
    bucket over the (source rank, local order)-ordered concatenation is
    exactly the source-order concatenation of the per-source buckets.
    Timing mirrors :func:`alltoall`: pairwise rounds plus byte terms, with
    the empty-bucket pickle envelope charged per peer as the real exchange
    would.
    """
    contribution = (local, np.asarray(splitters))

    def combine(comm, contribs, base):
        from ..amr.particles import ParticleSet

        lat, sw, bw = _params(comm)
        size = comm.size
        splitters = contribs[0][1]
        sets = [c[0] for c in contribs]
        counts = np.array([len(s) for s in sets], dtype=np.int64)
        ids = np.concatenate([s.ids for s in sets])
        positions = np.concatenate([s.positions for s in sets])
        velocities = np.concatenate([s.velocities for s in sets])
        mass = np.concatenate([s.mass for s in sets])
        attributes = np.concatenate([s.attributes for s in sets])
        source = np.repeat(np.arange(size, dtype=np.int64), counts)
        bucket = np.searchsorted(splitters, ids, side="left")
        # Stable by destination: within a bucket the (source, local order)
        # concatenation order is preserved, matching per-message delivery.
        order = np.argsort(bucket, kind="stable")
        bounds = np.searchsorted(bucket[order], np.arange(size + 1))
        results = []
        for d in range(size):
            sel = order[bounds[d] : bounds[d + 1]]
            results.append(ParticleSet(
                ids[sel], positions[sel], velocities[sel],
                mass[sel], attributes[sel],
            ))
        per_particle = (
            ids.itemsize + positions.itemsize * 3 + velocities.itemsize * 3
            + mass.itemsize + attributes.itemsize * attributes.shape[1]
        )
        diag = np.bincount(source[source == bucket], minlength=size)
        send = (counts - diag) * per_particle
        recv = np.bincount(bucket, minlength=size) - diag
        recv = recv * per_particle
        env = (size - 1) * _pset_env_nbytes()
        rounds = (size - 1) * (2 * sw + lat)
        done = [
            base + rounds + (env + max(int(send[r]), int(recv[r]))) / bw
            for r in range(size)
        ]
        return results, done

    return _rendezvous(comm, "pexchange", contribution, combine)


def reduce(comm: Comm, obj: Any, op: Callable[[Any, Any], Any], root: int = 0):
    def combine(comm, contribs, base):
        lat, sw, bw = _params(comm)
        nmax = max(n for n, _ in contribs)
        t = base + _log2_rounds(comm.size) * (2 * sw + lat + nmax / bw)
        acc = contribs[0][1]
        for _, o in contribs[1:]:
            acc = op(acc, o)
        results: list = [None] * comm.size
        results[root] = acc
        return results, [t] * comm.size

    return _rendezvous(comm, "reduce", _arrive(obj), combine)
