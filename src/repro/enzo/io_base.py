"""I/O strategy interface and shared helpers.

A strategy implements the two timed operations of the study:

* :meth:`write_checkpoint` -- the per-cycle data dump (paper's "Write");
* :meth:`read_checkpoint` -- the restart / new-simulation read ("Read").

All strategies write the same logical content (every grid's baryon fields
and particle arrays, plus the replicated hierarchy metadata in a
``<base>.hierarchy`` sidecar), so checkpoints are comparable bit-for-bit
across strategies and processor counts.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from ..aio.core import drain_all
from ..mpi import collectives as coll
from ..mpi.comm import Comm
from ..mpiio.adio import ADIOFile
from ..pfs.base import FileSystem, InjectedIOError
from ..resilience.manifest import (
    CheckpointManifest,
    ManifestVerificationError,
    manifest_path,
)
from ..resilience.retry import RetryPolicy
from .meta import HierarchyMeta
from .state import RankState

__all__ = [
    "ComposedStrategy",
    "IOStats",
    "IOStrategy",
    "PendingDump",
    "StackContext",
    "hierarchy_path",
]


def hierarchy_path(base: str) -> str:
    return f"{base}.hierarchy"


@dataclass
class IOStats:
    """Phase timing and volume breakdown of one strategy operation."""

    strategy: str = ""
    operation: str = ""  # "write" or "read"
    elapsed: float = 0.0
    phases: dict = dc_field(default_factory=dict)  # phase -> seconds (max over ranks)
    bytes_moved: int = 0

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds


class IOStrategy(ABC):
    """What every checkpoint strategy shares: the hierarchy sidecar, the
    manifest commit record and the recovery plumbing.

    Resilience: strategies accept an optional
    :class:`~repro.resilience.RetryPolicy` (``self.retry``) that the ADIO
    layer applies to every data operation, and each dump commits a
    ``<base>.manifest`` sidecar of per-array checksums that
    :meth:`verify_manifest` checks before a restart trusts the data.
    """

    name: str = "abstract"
    #: optional RetryPolicy; ``None`` = fail-fast (pre-resilience behaviour)
    retry: RetryPolicy | None = None
    #: optional repro.aio.AioConfig; ``None`` = fully synchronous I/O
    aio = None
    #: scale-mode: post a grid's array writes as one batched request
    #: (one schedule-point crossing); never set on pinned-digest paths
    batch_requests: bool = False

    @abstractmethod
    def write_checkpoint(
        self, comm: Comm, state: RankState, base: str
    ) -> IOStats:
        """Dump the full distributed state to ``base`` (collective)."""

    @abstractmethod
    def read_checkpoint(self, comm: Comm, base: str) -> tuple[RankState, IOStats]:
        """Read a checkpoint into a fresh per-rank state (collective)."""

    # -- shared helpers ----------------------------------------------------

    def _fs(self, comm: Comm) -> FileSystem:
        fs = comm.machine.fs
        if fs is None:
            raise ValueError("no file system attached to the machine")
        return fs

    def write_meta_sidecar(self, comm: Comm, base: str, meta: HierarchyMeta) -> None:
        """Rank 0 writes the hierarchy sidecar; everyone synchronises."""
        if comm.rank == 0:
            adio = ADIOFile.open(
                comm, hierarchy_path(base), create=True, retry=self.retry
            )
            adio.write_contig(0, meta.to_bytes())
        coll.barrier(comm)

    def read_meta_sidecar(self, comm: Comm, base: str) -> HierarchyMeta:
        """Rank 0 reads the sidecar and broadcasts it."""
        blob = None
        if comm.rank == 0:
            adio = ADIOFile.open(comm, hierarchy_path(base), retry=self.retry)
            blob = adio.read_contig(0, adio.size())
        blob = coll.bcast(comm, blob, root=0)
        return HierarchyMeta.from_bytes(blob)

    # -- manifest (crash consistency) --------------------------------------

    def write_manifest(self, comm: Comm, base: str, entries) -> None:
        """Commit the dump: gather per-rank entries, rank 0 writes the
        ``<base>.manifest`` sidecar, everyone synchronises.

        Called *after* the data file is closed so the manifest's presence
        marks a completed dump -- a crash mid-dump leaves no manifest and
        restart fails loudly in :meth:`verify_manifest`.
        """
        gathered = coll.gather(comm, list(entries), root=0)
        if comm.rank == 0:
            manifest = CheckpointManifest(strategy=self.name)
            for rank_entries in gathered:
                for entry in rank_entries:
                    manifest.add(entry)
            adio = ADIOFile.open(
                comm, manifest_path(base), create=True, retry=self.retry
            )
            adio.write_contig(0, manifest.to_bytes())
        coll.barrier(comm)

    def verify_manifest(self, comm: Comm, base: str) -> None:
        """Integrity-gate a restart: rank 0 loads the manifest and scans
        every recorded array's on-disk bytes against its checksum.

        Raises :class:`~repro.resilience.ManifestVerificationError` when
        the manifest is missing (dump never committed), unreadable, or any
        checksum mismatches (torn/lost writes) -- corrupt state is never
        silently returned.
        """
        if comm.rank == 0:
            fs = self._fs(comm)
            path = manifest_path(base)
            if not fs.exists(path):
                raise ManifestVerificationError(
                    f"checkpoint {base!r} has no manifest -- "
                    "the dump did not complete"
                )
            adio = ADIOFile.open(comm, path, retry=self.retry)
            manifest = CheckpointManifest.from_bytes(
                adio.read_contig(0, adio.size())
            )
            manifest.verify_or_raise(fs.store, base)
        coll.barrier(comm)

    # -- recovery plumbing -------------------------------------------------

    def _notify(self, comm: Comm, base: str, kind: str, nbytes: int = 0) -> None:
        """Emit a recovery event on this rank's node at the current clock."""
        self._fs(comm).notify_recovery(
            base,
            kind,
            node=comm.machine.node_of(comm.rank),
            time=comm.clock,
            nbytes=nbytes,
        )

    def _collective_or_degraded(
        self, comm: Comm, base: str, write_collective, write_independent,
        nbytes: int = 0,
    ) -> bool:
        """Run a collective write, degrading to independent I/O on failure.

        Only active when the strategy has a retry policy; otherwise the
        collective runs bare (no extra synchronisation) and
        failures propagate.  When any participant's collective attempt
        fails (after its ADIO-level retries), all ranks agree via allreduce
        and re-issue their share independently -- the same bytes land at
        the same offsets, so the result is identical, just slower.
        Returns True when the degraded path ran.
        """
        if self.retry is None:
            write_collective()
            return False
        failed = 0
        try:
            write_collective()
        except InjectedIOError:
            failed = 1
        if coll.allreduce(comm, failed) == 0:
            return False
        self._notify(comm, base, "degraded", nbytes=nbytes)
        write_independent()
        return True


# -- the layered I/O stack (see repro.iostack) -------------------------------


@dataclass
class StackContext:
    """Per-operation state threaded through the stack layers.

    The strategy owns it; transports time their phases through
    :meth:`timed` and both transports and format sessions append manifest
    entries to ``entries``.
    """

    strategy: "ComposedStrategy"
    comm: Comm
    base: str
    stats: IOStats
    entries: list

    @contextmanager
    def timed(self, name: str):
        """Record the simulated-clock span of a phase into the stats."""
        t = self.comm.clock
        yield
        self.stats.add_phase(name, self.comm.clock - t)


@dataclass
class PendingDump:
    """A posted checkpoint dump awaiting its drain + manifest commit.

    Produced by :meth:`ComposedStrategy.write_checkpoint_async`; the
    caller overlaps compute with the background drain and calls
    :meth:`complete` before the data may be needed (next dump, restart,
    shutdown).  ``complete`` is where deferred I/O errors surface --
    *before* the manifest is written, so a failed drain leaves no commit
    record and a restart fails loudly instead of trusting torn state.
    """

    ctx: StackContext
    _done: bool = False

    @property
    def stats(self) -> IOStats:
        return self.ctx.stats

    def complete(self) -> IOStats:
        """Drain, barrier, commit the manifest; returns the final stats.

        Idempotent; the recorded ``drain_wait`` phase is the part of the
        write the overlap failed to hide.
        """
        if self._done:
            return self.ctx.stats
        self._done = True
        ctx = self.ctx
        comm = ctx.comm
        t0 = comm.clock
        with ctx.timed("drain_wait"):
            drain_all(comm)
        coll.barrier(comm)  # every rank's data is durable before commit
        ctx.strategy.write_manifest(comm, ctx.base, ctx.entries)
        ctx.stats.elapsed += comm.clock - t0
        return ctx.stats


class ComposedStrategy(IOStrategy):
    """An I/O strategy assembled from layout + transport + format layers.

    The named compositions in :mod:`repro.iostack.registry` instantiate
    this class (``registry.create`` is the only way to build a strategy).
    The cross-cutting order every composition shares lives here, once:

    * **write** -- hierarchy sidecar, open, transport-driven data phases,
      close, then the CRC32 manifest *commit record* (data before
      manifest: a crash mid-dump leaves no manifest, so restart fails
      loudly instead of reading torn state);
    * **read** -- sidecar, manifest verification, open, transport-driven
      phases, close;
    * **read_initial** -- sidecar then the transport's distribution read
      (no manifest gate and no phase breakdown, matching the original
      new-simulation paths).
    """

    def __init__(
        self, name: str, layout_planner, transport, fmt,
        retry: RetryPolicy | None = None, aio=None,
    ):
        self.name = name
        self.layout_planner = layout_planner
        self.transport = transport
        self.format = fmt
        self.retry = retry
        #: optional repro.aio.AioConfig; non-None makes every data write
        #: nonblocking (posted to the per-rank background flush service)
        self.aio = aio

    def _write_data(self, comm: Comm, state: RankState, base: str) -> StackContext:
        """Sidecar, open, transport data phases, close -- no commit yet."""
        stats = IOStats(strategy=self.name, operation="write")
        t0 = comm.clock
        layout = self.layout_planner.plan(state.meta)
        ctx = StackContext(self, comm, base, stats, [])
        self.write_meta_sidecar(comm, base, state.meta)
        session = self.format.open_write(ctx, state.meta, layout)
        self.transport.write(ctx, session, layout, state)
        session.close()
        stats.elapsed = comm.clock - t0
        return ctx

    def write_checkpoint(self, comm: Comm, state: RankState, base: str) -> IOStats:
        t0 = comm.clock
        ctx = self._write_data(comm, state, base)
        if self.aio is not None:
            # Async transport: the data phases were only posted; drain and
            # commit at once (no compute to overlap with here -- the Enzo
            # driver's double buffering uses write_checkpoint_async).
            return PendingDump(ctx=ctx).complete()
        self.write_manifest(comm, base, ctx.entries)
        ctx.stats.elapsed = comm.clock - t0
        return ctx.stats

    def write_checkpoint_async(
        self, comm: Comm, state: RankState, base: str
    ) -> PendingDump:
        """Post the dump's data phases and return without committing.

        With the strategy's ``aio`` config the data writes are posted to
        the background flush service, so the rank returns as soon as
        staging and communication are done.  The CRC32 manifest is *not*
        written yet: :meth:`PendingDump.complete` drains every pending
        request (the explicit flush barrier) and only then commits,
        preserving the crash-consistency invariant that a manifest's
        presence proves fully-landed data.  Valid for any composition (a
        synchronous strategy's "pending" dump simply has nothing left to
        drain), so drivers can double-buffer unconditionally.
        """
        return PendingDump(ctx=self._write_data(comm, state, base))

    def _read(self, comm: Comm, base: str, operation: str, *, verify: bool):
        """``operation`` names both the stats and the transport method."""
        stats = IOStats(strategy=self.name, operation=operation)
        t0 = comm.clock
        meta = self.read_meta_sidecar(comm, base)
        if verify:
            self.verify_manifest(comm, base)
        layout = self.layout_planner.plan(meta)
        ctx = StackContext(self, comm, base, stats, [])
        session = self.format.open_read(ctx, meta, layout)
        state = getattr(self.transport, operation)(ctx, session, layout, meta)
        session.close()
        stats.elapsed = comm.clock - t0
        return state, stats

    def read_checkpoint(self, comm: Comm, base: str) -> tuple[RankState, IOStats]:
        return self._read(comm, base, "read", verify=True)

    def read_initial(self, comm: Comm, base: str):
        return self._read(comm, base, "read_initial", verify=False)
