"""File-system abstraction shared by every parallel-file-system model.

A :class:`FileSystem` answers two questions for every operation: what bytes
(via the :class:`~repro.pfs.blockstore.BlockStore`, which stores real data)
and when it completes (via the subclass's timing model).  The layers above
(MPI-IO's ADIO binding, the HDF4/HDF5 libraries) only ever see this API.

Also here: :class:`LRUCache`, the extent cache used by server models for the
read-caching effects the paper observes on PVFS.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain

from .blockstore import BlockStore

__all__ = [
    "FileSystem",
    "FSCounters",
    "FaultSpec",
    "LRUCache",
    "InjectedIOError",
    "TornWriteError",
    "FAULT_MODES",
    "FAULT_OPS",
]


@dataclass
class FSCounters:
    """Operation/byte counters, reported by the benchmark harness."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    recoveries: int = 0

    def reset(self) -> None:
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0
        self.recoveries = 0


class InjectedIOError(OSError):
    """Raised by a file system when a scheduled fault fires."""


class TornWriteError(InjectedIOError):
    """A write fault that persisted only a prefix of the request.

    Models a crash mid-write: part of the data reaches the store before
    the error surfaces, so the file holds a torn (partially-updated)
    region that only checksum verification can detect.
    """


FAULT_OPS = ("read", "write", "meta")
FAULT_MODES = ("oneshot", "persistent", "probabilistic", "torn")


@dataclass
class FaultSpec:
    """One armed fault and its firing discipline.

    Modes:

    - ``oneshot``: fire on the first match (after ``after`` skipped
      matches), then disarm -- the pre-existing behaviour.
    - ``persistent``: fire on *every* match; models a dead device or a
      permissions failure that never heals.
    - ``probabilistic``: fire on each match with ``probability``, using a
      private ``random.Random(seed)`` stream so runs are reproducible.
    - ``torn`` (writes only): persist the first ``torn_fraction`` of the
      request's bytes, then raise :class:`TornWriteError`; disarms after
      firing like ``oneshot``.

    ``min_nbytes`` restricts data faults to requests at least that large
    (useful for hitting aggregated collective writes while letting the
    small independent fallback writes through).
    """

    op: str
    path_substring: str = ""
    after: int = 0
    mode: str = "oneshot"
    probability: float = 1.0
    min_nbytes: int = 0
    torn_fraction: float = 0.5
    seed: int = 0
    fired: int = 0
    _skips_left: int = field(init=False, default=0, repr=False)
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown op {self.op!r} (expected one of {FAULT_OPS})")
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r} (expected one of {FAULT_MODES})"
            )
        if self.mode == "torn" and self.op != "write":
            raise ValueError("torn faults only apply to op='write'")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.min_nbytes < 0:
            raise ValueError("min_nbytes must be >= 0")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ValueError("torn_fraction must be in [0, 1)")
        self._skips_left = self.after
        self._rng = random.Random(self.seed)

    def matches(self, op: str, path: str, nbytes: int) -> bool:
        return (
            op == self.op
            and self.path_substring in path
            and nbytes >= self.min_nbytes
        )

    def should_fire(self) -> bool:
        """Consume one match; True when the fault fires on it."""
        if self._skips_left > 0:
            self._skips_left -= 1
            return False
        if self.mode == "probabilistic" and self._rng.random() >= self.probability:
            return False
        self.fired += 1
        return True

    @property
    def exhausted(self) -> bool:
        return self.mode in ("oneshot", "torn") and self.fired > 0


def _check_out(out, nbytes: int) -> None:
    """Refuse a read destination that is not ``nbytes`` bytes long: the
    request is counted and timed at ``nbytes``, whatever lands in ``out``."""
    if out is not None and len(out) != nbytes:
        raise ValueError(f"a read of {nbytes} bytes into a buffer of {len(out)}")


class FileSystem:
    """Base class: data path through the block store, timing via hooks.

    Subclasses override :meth:`_service_read` / :meth:`_service_write` /
    :meth:`_service_meta` to implement their performance model.  The base
    implementations are zero-cost (an "infinitely fast" file system), which
    is what the unit tests of higher layers use.

    Fault injection: :meth:`inject_fault` arms :class:`FaultSpec` failures
    (one-shot, persistent, probabilistic, or torn-write) so tests can
    verify that I/O errors surface cleanly through every library layer
    (they become :class:`~repro.sim.errors.RankFailedError` at the engine)
    and that the resilience layer recovers from them.

    Request stream: every public request (read/write/list I/O, namespace
    operations, recovery notices) is published to the observers added with
    :meth:`subscribe`, once its timing hook has returned -- this is what
    :func:`~repro.core.trace.trace_filesystem` records.
    """

    def __init__(self, name: str = "nullfs"):
        self.name = name
        self.store = BlockStore()
        self.counters = FSCounters()
        self._faults: list[FaultSpec] = []
        self._observers: list = []
        self.background_flush_active = False

    @contextmanager
    def background_flush(self):
        """Mark I/O issued inside the block as background-flush traffic.

        The async progress engine books its drain on a timeline that runs
        ahead of the issuing rank's clock.  A performance model whose
        client-side resources are shared with message passing must not let
        those future reservations head-of-line-block foreground traffic
        (a scalar busy-until device cannot interleave them), so models
        route background writes through a dedicated per-node flush channel
        instead.  Server-side resources stay shared: the flush still
        contends for disks and server CPUs like any other client.
        """
        prev = self.background_flush_active
        self.background_flush_active = True
        try:
            yield
        finally:
            self.background_flush_active = prev

    # -- request stream ------------------------------------------------------

    def subscribe(self, observer) -> None:
        """Call ``observer(op, path, offset, nbytes, start, end, node, kind,
        attempt)`` for every request from now on.

        ``op`` is "read", "write", "meta" or "recovery"; ``kind`` names the
        namespace operation or recovery event and ``attempt`` the retry
        number (empty / 0 for data requests).  A list-I/O request publishes
        one event per segment, all carrying the request's start and end.
        """
        self._observers.append(observer)

    def unsubscribe(self, observer) -> None:
        """Stop publishing to ``observer``; unknown observers are ignored."""
        if observer in self._observers:
            self._observers.remove(observer)

    def _publish(self, op, path, offset, nbytes, start, end, node,
                 kind="", attempt=0) -> None:
        for observer in self._observers:
            observer(op, path, offset, nbytes, start, end, node, kind, attempt)

    # -- fault injection -----------------------------------------------------

    def inject_fault(
        self,
        op: str,
        path_substring: str = "",
        *,
        after: int = 0,
        mode: str = "oneshot",
        probability: float = 1.0,
        min_nbytes: int = 0,
        torn_fraction: float = 0.5,
        seed: int = 0,
    ) -> FaultSpec:
        """Arm a fault; see :class:`FaultSpec` for the firing modes.

        ``op`` is "read", "write" or "meta"; the fault considers matching
        operations once ``after`` earlier matches have passed.  Unknown
        ``op``/``mode`` values and out-of-range parameters raise
        :class:`ValueError` immediately -- a silently ignored fault spec
        would make a fault-injection test vacuously pass.  Returns the
        armed spec so callers can inspect ``spec.fired``.
        """
        spec = FaultSpec(
            op=op,
            path_substring=path_substring,
            after=after,
            mode=mode,
            probability=probability,
            min_nbytes=min_nbytes,
            torn_fraction=torn_fraction,
            seed=seed,
        )
        self._faults.append(spec)
        return spec

    def clear_faults(self) -> None:
        """Disarm every fault (e.g. between test phases)."""
        self._faults.clear()

    def _check_fault(self, op: str, path: str, nbytes: int = 0) -> FaultSpec | None:
        """Raise if an armed non-torn fault fires; return a firing torn spec.

        Torn faults are returned instead of raised so :meth:`write` can
        persist the partial prefix before surfacing the error.
        """
        for spec in list(self._faults):
            if not spec.matches(op, path, nbytes):
                continue
            if not spec.should_fire():
                continue
            if spec.exhausted:
                self._faults.remove(spec)
            if spec.mode == "torn":
                return spec
            raise InjectedIOError(f"injected {op} fault on {path!r}")
        return None

    def _tear_write(self, spec: FaultSpec, path: str, offset: int, buf) -> None:
        """Persist the torn prefix of ``buf`` and raise TornWriteError."""
        n_keep = int(len(buf) * spec.torn_fraction)
        if n_keep > 0:
            f = self.store.open(path, create=True)
            f.write(offset, buf[:n_keep])
            self.counters.writes += 1
            self.counters.bytes_written += n_keep
        raise TornWriteError(
            f"injected torn write on {path!r}: {n_keep}/{len(buf)} bytes persisted"
        )

    def _tear_write_list(self, spec: FaultSpec, path: str, segments, buf) -> None:
        """Torn list-write: persist a prefix of the segment stream, then raise."""
        n_keep = int(len(buf) * spec.torn_fraction)
        if n_keep > 0:
            f = self.store.open(path, create=True)
            pos = 0
            for off, n in segments:
                if pos >= n_keep:
                    break
                take = min(n, n_keep - pos)
                f.write(off, buf[pos : pos + take])
                pos += take
            self.counters.writes += 1
            self.counters.bytes_written += n_keep
        raise TornWriteError(
            f"injected torn write on {path!r}: {n_keep}/{len(buf)} bytes persisted"
        )

    # -- recovery notification ------------------------------------------------

    def notify_recovery(
        self,
        path: str,
        kind: str,
        *,
        node: int = 0,
        time: float = 0.0,
        attempt: int = 0,
        nbytes: int = 0,
    ) -> None:
        """Report a resilience event (retry / recovered / degraded / ...).

        Counted in :attr:`FSCounters.recoveries` and published, so recovery
        shows up in the :class:`~repro.core.trace.IOTrace` alongside the
        I/O it rescued.
        """
        self.counters.recoveries += 1
        if self._observers:
            self._publish("recovery", path, 0, nbytes, time, time, node,
                          kind, attempt)

    # -- namespace ------------------------------------------------------

    def create(self, path: str, *, node: int = 0, ready_time: float = 0.0) -> float:
        """Create or truncate ``path``; returns the completion time."""
        self._check_fault("meta", path)
        self.store.create(path)
        return self._meta("create", path, node, ready_time)

    def open(self, path: str, *, node: int = 0, ready_time: float = 0.0) -> float:
        """Open an existing ``path``; returns the completion time."""
        self._check_fault("meta", path)
        self.store.open(path)
        return self._meta("open", path, node, ready_time)

    def delete(self, path: str, *, node: int = 0, ready_time: float = 0.0) -> float:
        self._check_fault("meta", path)
        self.store.delete(path)
        return self._meta("delete", path, node, ready_time)

    def _meta(self, op: str, path: str, node: int, ready_time: float) -> float:
        done = self._service_meta(op, path, node, ready_time)
        if self._observers:
            self._publish("meta", path, 0, 0, ready_time, done, node, op)
        return done

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def file_size(self, path: str) -> int:
        return self.store.open(path).size

    # -- data -------------------------------------------------------------

    def read(
        self,
        path: str,
        offset: int,
        nbytes: int,
        *,
        node: int = 0,
        ready_time: float = 0.0,
        out: memoryview | None = None,
    ) -> tuple[bytes | memoryview, float]:
        """Read bytes; returns ``(data, completion_time)``.

        With ``out``, a writable byte view of ``nbytes`` bytes, the data
        is copied once from the store into it and ``data`` is ``out``.
        """
        _check_out(out, nbytes)
        self._check_fault("read", path, nbytes)
        f = self.store.open(path)
        if out is None:
            data = f.read(offset, nbytes)
        else:
            f.readinto(offset, out)
            data = out
        self.counters.reads += 1
        self.counters.bytes_read += nbytes
        done = self._service_read(path, offset, nbytes, node, ready_time)
        if self._observers:
            self._publish("read", path, offset, nbytes, ready_time, done, node)
        return data, done

    def write(
        self,
        path: str,
        offset: int,
        data: bytes | bytearray | memoryview,
        *,
        node: int = 0,
        ready_time: float = 0.0,
    ) -> float:
        """Write bytes; returns the completion time."""
        buf = memoryview(data).cast("B")
        torn = self._check_fault("write", path, len(buf))
        if torn is not None:
            self._tear_write(torn, path, offset, buf)
        f = self.store.open(path, create=True)
        n = f.write(offset, data)
        self.counters.writes += 1
        self.counters.bytes_written += n
        done = self._service_write(path, offset, n, node, ready_time)
        if self._observers:
            self._publish("write", path, offset, n, ready_time, done, node)
        return done

    # -- list I/O ---------------------------------------------------------

    def read_list(
        self,
        path: str,
        segments: list[tuple[int, int]],
        *,
        node: int = 0,
        ready_time: float = 0.0,
        out: memoryview | None = None,
    ) -> tuple[bytes | memoryview, float]:
        """Read many (offset, nbytes) segments as ONE file-system request.

        This is PVFS list-I/O (Ching/Choudhary et al.): the request
        carries the whole access list, so the per-request software costs
        are paid once rather than per segment.  Returns the concatenated
        bytes (or ``out`` filled with them, as :meth:`read`) and the
        completion time.  The base implementation simply loops;
        performance-model subclasses override the timing.
        """
        total = sum(n for _, n in segments)
        _check_out(out, total)
        self._check_fault("read", path, total)
        f = self.store.open(path)
        if out is None:
            # One join over every segment's page spans: each byte is copied
            # once.
            data = b"".join(chain.from_iterable(
                f._spans(off, n) for off, n in segments
            ))
        else:
            pos = 0
            for off, n in segments:
                f.readinto(off, out[pos : pos + n])
                pos += n
            data = out
        self.counters.reads += 1
        self.counters.bytes_read += total
        return data, self._list(path, segments, node, ready_time, "read")

    def write_list(
        self,
        path: str,
        segments: list[tuple[int, int]],
        data,
        *,
        node: int = 0,
        ready_time: float = 0.0,
    ) -> float:
        """Write ``data`` into many (offset, nbytes) segments as ONE request."""
        buf = memoryview(data).cast("B")
        total = sum(n for _, n in segments)
        if len(buf) != total:
            raise ValueError(f"data has {len(buf)} bytes, segments need {total}")
        torn = self._check_fault("write", path, total)
        if torn is not None:
            self._tear_write_list(torn, path, segments, buf)
        f = self.store.open(path, create=True)
        pos = 0
        for off, n in segments:
            f.write(off, buf[pos : pos + n])
            pos += n
        self.counters.writes += 1
        self.counters.bytes_written += total
        return self._list(path, segments, node, ready_time, "write")

    def _list(self, path, segments, node: int, ready_time: float, op: str) -> float:
        done = self._service_list(path, segments, node, ready_time, op)
        if self._observers:
            for off, n in segments:
                self._publish(op, path, off, n, ready_time, done, node)
        return done

    def _service_list(
        self,
        path: str,
        segments: list[tuple[int, int]],
        node: int,
        ready_time: float,
        op: str,
    ) -> float:
        """Timing hook for list I/O; defaults to per-segment service."""
        t = ready_time
        for off, n in segments:
            if op == "read":
                t = self._service_read(path, off, n, node, t)
            else:
                t = self._service_write(path, off, n, node, t)
        return t

    # -- timing hooks (override in subclasses) -----------------------------

    def _service_read(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        return ready_time

    def _service_write(
        self, path: str, offset: int, nbytes: int, node: int, ready_time: float
    ) -> float:
        return ready_time

    def _service_meta(self, op: str, path: str, node: int, ready_time: float) -> float:
        return ready_time

    def set_file_striping(
        self, path: str, stripe_size: int | None = None, stripe_count: int | None = None
    ) -> None:
        """Per-file layout request (MPI-IO striping hints); ignored by default."""

    def devices(self):
        """Timelines of the devices the model queues requests on, in report order."""
        return []

    def reset_timing(self) -> None:
        """Zero device timelines (keep data and cache contents).

        Call between independently-timed phases so one phase's queue state
        does not leak into the next measurement.
        """
        for device in self.devices():
            device.reset()


@dataclass
class LRUCache:
    """Block-granular LRU cache (read cache / prefetch buffer of a server).

    Tracks *which* blocks are resident, not their contents -- contents always
    come from the block store; the cache only decides whether disk time is
    charged.  Granularity is ``block_size`` bytes.
    """

    capacity_bytes: int = 0
    block_size: int = 65536
    #: charge whole blocks for partially-missing reads (GPFS-style
    #: block-aligned I/O: a small read costs a full file-system block).
    amplify: bool = False
    _blocks: OrderedDict = field(default_factory=OrderedDict, repr=False)
    hits: int = 0
    misses: int = 0

    @property
    def capacity_blocks(self) -> int:
        return self.capacity_bytes // self.block_size

    def _key_range(self, offset: int, nbytes: int) -> range:
        if nbytes <= 0:
            return range(0)
        first = offset // self.block_size
        last = (offset + nbytes - 1) // self.block_size
        return range(first, last + 1)

    def lookup(self, path: str, offset: int, nbytes: int) -> int:
        """Return the number of *missing* bytes (must come from disk).

        Resident blocks are refreshed (LRU touch); missing blocks are
        inserted, modelling demand-filling the cache as the read completes.
        """
        if self.capacity_blocks == 0:
            self.misses += 1
            return nbytes
        missing_blocks = 0
        keys = self._key_range(offset, nbytes)
        for b in keys:
            key = (path, b)
            if key in self._blocks:
                self._blocks.move_to_end(key)
                self.hits += 1
            else:
                missing_blocks += 1
                self.misses += 1
                self._insert(key)
        if self.amplify:
            return missing_blocks * self.block_size
        return min(nbytes, missing_blocks * self.block_size)

    def populate(self, path: str, offset: int, nbytes: int) -> None:
        """Mark blocks resident (e.g. after a write-through)."""
        if self.capacity_blocks == 0:
            return
        for b in self._key_range(offset, nbytes):
            self._insert((path, b))

    def invalidate(self, path: str) -> None:
        """Drop all blocks of ``path``."""
        stale = [k for k in self._blocks if k[0] == path]
        for k in stale:
            del self._blocks[k]

    def _insert(self, key) -> None:
        self._blocks[key] = True
        self._blocks.move_to_end(key)
        while len(self._blocks) > self.capacity_blocks:
            self._blocks.popitem(last=False)
