"""ADIO: the abstract I/O device layer (Thakur, Gropp, Lusk).

ROMIO is implemented portably on top of ADIO, a small set of contiguous
read/write primitives that each file system implements.  Everything clever
(file views, data sieving, two-phase collective I/O) lives above this layer
and is file-system independent -- exactly the structure we reproduce here.

:class:`ADIOFile` binds one rank to one file of a
:class:`~repro.pfs.base.FileSystem`: contiguous byte reads/writes at explicit
offsets, with the rank's virtual clock advanced to the operation's completion
(blocking POSIX-style semantics).
"""

from __future__ import annotations

import numpy as np

from ..aio.core import AioConfig, AioRequest, progress_engine
from ..mpi.comm import Comm
from ..pfs.base import FileSystem, InjectedIOError
from ..resilience.retry import RetryPolicy

__all__ = ["ADIOFile", "as_byte_view"]


def as_byte_view(data) -> memoryview:
    """Expose any buffer-ish object as a flat byte view (no copy)."""
    if isinstance(data, np.ndarray):
        return memoryview(np.ascontiguousarray(data)).cast("B")
    return memoryview(data).cast("B")


def _attached_fs(comm: Comm) -> FileSystem:
    fs = comm.machine.fs
    if fs is None:
        raise ValueError("no file system attached to the machine")
    return fs


class ADIOFile:
    """Per-rank handle for raw contiguous file access with timing.

    With a :class:`~repro.resilience.RetryPolicy` attached, every primitive
    retries transient :class:`~repro.pfs.base.InjectedIOError` failures up
    to ``max_retries`` times, backing off in simulated time between
    attempts and reporting each retry / recovery / give-up through
    :meth:`FileSystem.notify_recovery` (visible in the trace).  Without a
    policy the first failure propagates, as before.
    """

    def __init__(
        self,
        fs: FileSystem,
        path: str,
        comm: Comm,
        retry: RetryPolicy | None = None,
        aio: AioConfig | None = None,
    ):
        self.fs = fs
        self.path = path
        self.comm = comm
        self.retry = retry
        self.aio = aio
        self._closed = False

    # -- open: the namespace request, on the calling rank's clock ----------

    @classmethod
    def open(
        cls,
        comm: Comm,
        path: str,
        *,
        create: bool = False,
        retry: RetryPolicy | None = None,
        aio: AioConfig | None = None,
    ) -> "ADIOFile":
        """Create (truncating) or open ``path`` on the calling rank alone,
        on the machine's file system.

        The request is a schedule point like any other file-system request
        and the rank's clock ends at its completion.
        """
        fs = _attached_fs(comm)
        adio = cls(fs, path, comm, retry=retry, aio=aio)
        proc = comm.proc
        proc.schedule_point()
        if create:
            done = fs.create(path, node=adio._node, ready_time=proc.clock)
        else:
            done = fs.open(path, node=adio._node, ready_time=proc.clock)
        proc.advance_to(done)
        return adio

    @property
    def _node(self) -> int:
        return self.comm.machine.node_of(self.comm.rank)

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"I/O on closed file {self.path!r}")

    # -- retry engine -----------------------------------------------------

    def _attempt(self, issue, nbytes: int, t: float):
        """Run ``issue(ready_time) -> (result, done)`` from simulated time
        ``t`` with bounded retries; returns ``(result, done, error)``.

        Retries only the file-system failure mode (``InjectedIOError``);
        programming errors propagate immediately.  Each retry moves ``t``
        on by the policy's backoff, so recovery costs simulated time like
        everything else.  A give-up returns the exhausting error with
        ``done`` at the time of the give-up; the caller raises it (blocking
        path) or records it on the request (post path).
        """
        policy = self.retry
        attempt = 0
        while True:
            try:
                result, done = issue(t)
            except InjectedIOError as exc:
                if policy is None or attempt >= policy.max_retries:
                    if policy is not None and policy.max_retries > 0:
                        self.fs.notify_recovery(
                            self.path, "giveup", node=self._node,
                            time=t, attempt=attempt, nbytes=nbytes,
                        )
                    return None, t, exc
                attempt += 1
                t += policy.backoff(attempt)
                self.fs.notify_recovery(
                    self.path, "retry", node=self._node,
                    time=t, attempt=attempt, nbytes=nbytes,
                )
                continue
            if attempt > 0:
                self.fs.notify_recovery(
                    self.path, "recovered", node=self._node,
                    time=done, attempt=attempt, nbytes=nbytes,
                )
            return result, done, None

    def _issue(self, issue, nbytes: int, *, sched: bool = True):
        """Blocking :meth:`_attempt` on the rank's clock: the rank waits out
        every backoff and the completion, and a give-up raises.
        ``sched=False`` skips the schedule point (the caller already
        crossed one for a batch of requests)."""
        proc = self.comm.proc
        if sched:
            proc.schedule_point()
        result, done, error = self._attempt(issue, nbytes, proc.clock)
        proc.advance_to(done)
        if error is not None:
            raise error
        return result

    # -- nonblocking post path (repro.aio) --------------------------------

    def _post_write(self, issue, nbytes: int) -> None:
        """Post ``issue`` to the rank's background flush service.

        The data is issued to the file system *now* (bytes land eagerly,
        identical to a blocking write), but the completion time is booked
        on the progress engine's drain timeline; the rank pays only the
        staging memcpy plus any backpressure wait.  Retries of transient
        failures run entirely on the drain timeline; an exhausted retry
        budget records the error on the posted request, to be raised when
        the engine retires it (backpressure, a pre-read drain or the
        manifest barrier).
        """
        proc = self.comm.proc
        proc.schedule_point()
        eng = progress_engine(proc, self.aio)
        eng.reserve(nbytes, proc)
        proc.advance(self.comm.machine.memcpy_time(nbytes))

        def flush(ready_time):
            with self.fs.background_flush():
                return issue(ready_time)

        _result, done, error = self._attempt(
            flush, nbytes, max(proc.clock, eng.clock)
        )
        eng.post(AioRequest(
            path=self.path, nbytes=nbytes, done_time=done, error=error
        ))

    def _drain_pending(self) -> None:
        """Complete this rank's outstanding posts (reads must observe
        every prior write's completion time, not just its bytes)."""
        proc = self.comm.proc
        eng = progress_engine(proc, self.aio)
        eng.drain(proc)

    # -- contiguous primitives -------------------------------------------

    def read_contig(self, offset: int, nbytes: int) -> bytes:
        """Blocking contiguous read; advances the rank's clock."""
        self._check_open()
        if self.aio is not None:
            self._drain_pending()

        def issue(ready_time):
            return self.fs.read(
                self.path, offset, nbytes, node=self._node, ready_time=ready_time
            )

        return self._issue(issue, nbytes)

    def write_contig(self, offset: int, data) -> int:
        """Contiguous write; blocking unless the handle has an ``aio``
        config, in which case it is posted to the flush service."""
        self._check_open()
        buf = as_byte_view(data)

        def issue(ready_time):
            done = self.fs.write(
                self.path, offset, buf, node=self._node, ready_time=ready_time
            )
            return len(buf), done

        return self._write(issue, len(buf))

    def write_vector(self, ops) -> int:
        """Issue N contiguous writes with ONE schedule-point crossing.

        ``ops`` is a sequence of ``(offset, data)`` pairs.  The same bytes
        land at the same offsets as N :meth:`write_contig` calls and each
        request is chained through the retry engine individually, but the
        rank crosses the scheduler once for the whole batch -- at scale, a
        grid file's worth of array writes costs one context-switch round
        instead of one per array.  Only used on scale-mode paths; the
        pinned-digest strategies keep per-request scheduling.
        """
        self._check_open()
        bufs = [(off, as_byte_view(data)) for off, data in ops]
        total = sum(len(b) for _, b in bufs)
        if self.aio is not None:
            # The async path already costs only a staging memcpy per post.
            for off, b in bufs:
                self.write_contig(off, b)
            return total
        self.comm.proc.schedule_point()
        for off, b in bufs:
            def issue(ready_time, off=off, b=b):
                done = self.fs.write(
                    self.path, off, b, node=self._node, ready_time=ready_time
                )
                return len(b), done

            self._issue(issue, len(b), sched=False)
        return total

    def read_list(self, segments: list[tuple[int, int]]) -> bytes:
        """One list-I/O read request covering all ``segments``."""
        self._check_open()
        if self.aio is not None:
            self._drain_pending()
        total = sum(n for _, n in segments)

        def issue(ready_time):
            return self.fs.read_list(
                self.path, segments, node=self._node, ready_time=ready_time
            )

        return self._issue(issue, total)

    def write_list(self, segments: list[tuple[int, int]], data) -> int:
        """One list-I/O write request covering all ``segments``; posted
        like :meth:`write_contig` when the handle has an ``aio`` config."""
        self._check_open()
        buf = as_byte_view(data)

        def issue(ready_time):
            done = self.fs.write_list(
                self.path, segments, buf, node=self._node, ready_time=ready_time
            )
            return len(buf), done

        return self._write(issue, len(buf))

    def _write(self, issue, nbytes: int) -> int:
        """Post ``issue`` to the flush service; without an ``aio`` config,
        run it now."""
        if self.aio is not None:
            self._post_write(issue, nbytes)
        else:
            self._issue(issue, nbytes)
        return nbytes

    # -- metadata ------------------------------------------------------------

    def size(self) -> int:
        self._check_open()
        if self.aio is not None:
            self._drain_pending()
        return self.fs.file_size(self.path)

    def close(self) -> None:
        self._closed = True
