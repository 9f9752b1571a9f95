"""The MPI-IO ``File`` API (the subset ROMIO-era applications used).

Open/close and ``*_all`` operations are collective; ``*_at`` operations are
independent.  Offsets follow MPI semantics: they count *etype units within
the current file view*, not raw bytes (with the default byte view the two
coincide).  Buffers are numpy arrays or bytes-like objects.

Typical baryon-field write from the paper::

    fh = File.open(comm, "dump", "w")
    ftype = Subarray(global_shape, local_shape, starts, FLOAT64)
    fh.set_view(disp, FLOAT64, ftype)
    fh.write_all(local_block)          # two-phase collective write
    fh.close()
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..aio.core import AioRequest
from ..mpi import collectives as coll
from ..mpi.comm import Comm
from ..mpi.datatypes import BYTE, Datatype
from ..pfs.base import FileSystem
from .adio import ADIOFile, _attached_fs, as_byte_view
from .fileview import FileView
from .hints import Hints
from .sieving import sieve_read, sieve_write
from .two_phase import collective_read, collective_write

__all__ = ["File"]


class File:
    """An MPI-IO file handle (one instance per rank, opened collectively)."""

    def __init__(self, comm: Comm, adio: ADIOFile, hints: Hints):
        self.comm = comm
        self.adio = adio
        self.hints = hints
        self.view = FileView()
        self._pointer = 0  # individual file pointer, in etype units
        # Write-behind staging buffer (absolute byte offset + bytes).
        self._wb_start: int | None = None
        self._wb_buf = bytearray()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        comm: Comm,
        path: str,
        mode: str = "r",
        *,
        fs: Optional[FileSystem] = None,
        hints: Optional[Hints] = None,
        retry=None,
        aio=None,
    ) -> "File":
        """Collectively open ``path``.  Modes: 'r', 'w' (create), 'rw', 'a'.

        ``fs`` defaults to the machine's attached file system.  ``retry``
        is an optional :class:`~repro.resilience.RetryPolicy` applied to
        every data operation on the returned handle.  ``aio`` is an
        optional :class:`~repro.aio.AioConfig`: with it, writes are posted
        to the rank's background flush service (nonblocking semantics) and
        ``iwrite_at``/``iwrite_at_all`` return genuinely pending requests.
        """
        if mode not in ("r", "w", "rw", "a"):
            raise ValueError(f"bad mode {mode!r}")
        hints = (hints or Hints()).validate()
        fs = _attached_fs(comm, fs)
        # Rank 0 performs the create/open metadata operation; everyone else
        # opens after it (barrier orders the create before other opens).
        if comm.rank == 0:
            if mode == "w" and (hints.striping_unit or hints.striping_factor):
                # ``lfs setstripe``: the layout request precedes the create.
                fs.set_file_striping(
                    path,
                    stripe_size=hints.striping_unit or None,
                    stripe_count=hints.striping_factor or None,
                )
            adio = ADIOFile.open(
                comm, path, create=mode == "w",
                create_if_missing=mode in ("rw", "a"),
                fs=fs, retry=retry, aio=aio,
            )
        coll.barrier(comm)
        if comm.rank != 0:
            adio = ADIOFile.open(comm, path, fs=fs, retry=retry, aio=aio)
        return cls(comm, adio, hints)

    def close(self) -> None:
        """Collective close; flushes any write-behind buffer first.

        Posted asynchronous writes stay pending past close -- the flush
        barrier before a manifest commit (or an explicit request wait)
        retires them; the bytes themselves landed at post time.
        """
        self._wb_flush()
        coll.barrier(self.comm)
        self.adio.close()

    def sync(self) -> None:
        """Flush client-side buffering to the file system (MPI_File_sync)."""
        self._wb_flush()

    # -- views ------------------------------------------------------------------

    def set_view(
        self, disp: int = 0, etype: Datatype = BYTE, filetype: Optional[Datatype] = None
    ) -> None:
        """Set this rank's file view; resets the individual file pointer."""
        self._wb_flush()
        self.view = FileView(disp=disp, etype=etype, filetype=filetype or etype)
        self._pointer = 0

    # -- write-behind buffering ------------------------------------------------

    def _wb_flush(self) -> None:
        if self._wb_start is not None and self._wb_buf:
            self.adio.write_contig(self._wb_start, self._wb_buf)
        self._wb_start = None
        self._wb_buf = bytearray()

    def _wb_stage(self, abs_offset: int, buf) -> bool:
        """Stage a contiguous write; returns False if not bufferable."""
        wb = self.hints.wb_buffer_size
        if wb <= 0:
            return False
        data = as_byte_view(buf)
        if self._wb_start is not None and (
            abs_offset != self._wb_start + len(self._wb_buf)
        ):
            self._wb_flush()  # a seek: flush the previous run
        if self._wb_start is None:
            self._wb_start = abs_offset
        self._wb_buf.extend(data)
        if len(self._wb_buf) >= wb:
            self._wb_flush()
        return True

    # -- helpers ------------------------------------------------------------------

    def _segments_for(self, offset_etypes: int, nbytes: int) -> list[tuple[int, int]]:
        stream_off = self.view.byte_offset(offset_etypes)
        if self.view.is_contiguous:
            return [(self.view.disp + stream_off, nbytes)] if nbytes else []
        return self.view.map_stream(stream_off, nbytes)

    def view_segments(self, offset_etypes: int, nbytes: int) -> list[tuple[int, int]]:
        """The (file_offset, nbytes) segments ``nbytes`` of data occupy
        under the current view -- what a manifest needs to checksum a
        rank's share of a collective write (the write's own list: a view
        maps a range once)."""
        return self._segments_for(offset_etypes, nbytes)

    @staticmethod
    def _nbytes(buf) -> int:
        if isinstance(buf, np.ndarray):
            return buf.nbytes
        return len(memoryview(buf).cast("B"))

    def _unpack(self, raw: bytes, like) -> np.ndarray | bytes:
        if isinstance(like, np.ndarray):
            return np.frombuffer(raw, dtype=like.dtype).reshape(like.shape).copy()
        return raw

    # -- independent I/O -----------------------------------------------------------

    def read_at(self, offset: int, buf_or_nbytes) -> np.ndarray | bytes:
        """Independent read at an explicit (etype-unit) view offset.

        Pass either a numpy array *template* (its dtype/shape describe the
        result) or a byte count.  Data sieving applies when the view is
        non-contiguous and the ``ds_read`` hint is on.
        """
        self._wb_flush()  # reads must observe buffered writes
        if isinstance(buf_or_nbytes, int):
            nbytes, like = buf_or_nbytes, None
        else:
            nbytes, like = self._nbytes(buf_or_nbytes), buf_or_nbytes
        segs = self._segments_for(offset, nbytes)
        if self.hints.use_listio and len(segs) > 1:
            raw = self.adio.read_list(segs)
        else:
            raw = sieve_read(self.adio, segs, self.hints)
        return self._unpack(raw, like) if like is not None else raw

    def write_at(self, offset: int, buf) -> int:
        """Independent write at an explicit (etype-unit) view offset."""
        nbytes = self._nbytes(buf)
        if self.view.is_contiguous and self.hints.wb_buffer_size > 0:
            abs_off = self.view.disp + self.view.byte_offset(offset)
            if self._wb_stage(abs_off, buf):
                return nbytes
        segs = self._segments_for(offset, nbytes)
        if self.hints.use_listio and len(segs) > 1:
            return self.adio.write_list(segs, buf)
        return sieve_write(self.adio, segs, buf, self.hints)

    # -- individual-file-pointer I/O ----------------------------------------------

    def seek(self, offset_etypes: int) -> None:
        if offset_etypes < 0:
            raise ValueError("negative seek")
        self._pointer = offset_etypes

    def tell(self) -> int:
        return self._pointer

    def _advance_pointer(self, nbytes: int) -> None:
        if nbytes % self.view.etype.size:
            raise ValueError("partial etype transfer")
        self._pointer += nbytes // self.view.etype.size

    def read(self, buf_or_nbytes) -> np.ndarray | bytes:
        """Independent read at the individual file pointer."""
        out = self.read_at(self._pointer, buf_or_nbytes)
        n = buf_or_nbytes if isinstance(buf_or_nbytes, int) else self._nbytes(out)
        self._advance_pointer(n)
        return out

    def write(self, buf) -> int:
        """Independent write at the individual file pointer."""
        n = self.write_at(self._pointer, buf)
        self._advance_pointer(n)
        return n

    # -- nonblocking I/O (repro.aio request objects) ---------------------------

    def iwrite_at(self, offset: int, buf):
        """Nonblocking independent write (``MPI_File_iwrite_at``).

        Returns an :class:`~repro.aio.AioRequest` with ``test(proc)`` /
        ``wait(proc)`` semantics.  Without an ``aio`` config on the handle
        the write completes immediately and the request is pre-completed.
        """
        self._wb_flush()
        nbytes = self._nbytes(buf)
        segs = self._segments_for(offset, nbytes)
        if len(segs) == 1:
            return self.adio.iwrite_contig(segs[0][0], buf)
        return self.adio.iwrite_list(segs, buf)

    def iwrite_at_all(self, offset: int, buf):
        """Nonblocking collective write (``MPI_File_iwrite_at_all``).

        Split-phase two-phase I/O: the exchange phase runs synchronously
        (it is communication, every rank must participate now), while the
        aggregators' file writes are posted to the background flush
        service.  The returned request completes when this rank's share of
        the drain is done; waiting on it surfaces deferred I/O errors.
        """
        self._wb_flush()
        nbytes = self._nbytes(buf)
        segs = self._segments_for(offset, nbytes)
        before = self.adio._post_seq
        collective_write(self.comm, self.adio, segs, buf, self.hints)
        if self.adio.aio is not None and self.adio._post_seq > before:
            return self.adio._last_posted
        return AioRequest(
            path=self.adio.path, nbytes=nbytes,
            done_time=self.comm.proc.clock, retired=True,
        )

    # -- collective I/O ---------------------------------------------------------------

    def read_at_all(self, offset: int, buf_or_nbytes) -> np.ndarray | bytes:
        """Collective (two-phase) read; all ranks of the comm must call."""
        self._wb_flush()
        if isinstance(buf_or_nbytes, int):
            nbytes, like = buf_or_nbytes, None
        else:
            nbytes, like = self._nbytes(buf_or_nbytes), buf_or_nbytes
        segs = self._segments_for(offset, nbytes)
        raw = collective_read(self.comm, self.adio, segs, self.hints)
        return self._unpack(raw, like) if like is not None else raw

    def write_at_all(self, offset: int, buf) -> int:
        """Collective (two-phase) write; all ranks of the comm must call."""
        self._wb_flush()
        nbytes = self._nbytes(buf)
        segs = self._segments_for(offset, nbytes)
        collective_write(self.comm, self.adio, segs, buf, self.hints)
        return nbytes

    def read_all(self, buf_or_nbytes) -> np.ndarray | bytes:
        """Collective read at the individual file pointer."""
        out = self.read_at_all(self._pointer, buf_or_nbytes)
        n = buf_or_nbytes if isinstance(buf_or_nbytes, int) else self._nbytes(out)
        self._advance_pointer(n)
        return out

    def write_all(self, buf) -> int:
        """Collective write at the individual file pointer."""
        n = self.write_at_all(self._pointer, buf)
        self._advance_pointer(n)
        return n

    # -- shared-file-pointer I/O ----------------------------------------------------

    def _shared_key(self) -> tuple:
        return ("mpiio.shared_fp", self.adio.path, self._ctx_id())

    def _ctx_id(self) -> int:
        return self.comm._ctx

    def _bump_shared(self, n_etypes: int) -> int:
        """Atomically fetch-and-add the shared file pointer (etype units).

        The engine serialises ranks at schedule points, so the ordering of
        concurrent shared-pointer operations is the deterministic virtual
        -time order -- the semantics of ``MPI_File_write_shared``.
        """
        self.comm.proc.schedule_point()
        ns = self.comm.world.__dict__.setdefault("_shared_fp", {})
        key = self._shared_key()
        current = ns.get(key, 0)
        ns[key] = current + n_etypes
        return current

    def read_shared(self, buf_or_nbytes) -> np.ndarray | bytes:
        """Independent read at the *shared* file pointer (FCFS ordered)."""
        nbytes = (
            buf_or_nbytes
            if isinstance(buf_or_nbytes, int)
            else self._nbytes(buf_or_nbytes)
        )
        if nbytes % self.view.etype.size:
            raise ValueError("partial etype transfer")
        offset = self._bump_shared(nbytes // self.view.etype.size)
        return self.read_at(offset, buf_or_nbytes)

    def write_shared(self, buf) -> int:
        """Independent write at the *shared* file pointer (FCFS ordered)."""
        nbytes = self._nbytes(buf)
        if nbytes % self.view.etype.size:
            raise ValueError("partial etype transfer")
        offset = self._bump_shared(nbytes // self.view.etype.size)
        self.write_at(offset, buf)
        return nbytes

    # -- metadata ------------------------------------------------------------------------

    def get_size(self) -> int:
        """Current file size in bytes."""
        return self.adio.size()
