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

from ..mpi import collectives as coll
from ..mpi.comm import Comm
from ..mpi.datatypes import BYTE, Datatype
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
        hints: Optional[Hints] = None,
        retry=None,
        aio: bool = False,
    ) -> "File":
        """Collectively open ``path`` on the machine's file system.  Modes:
        'r' (read an existing file) and 'w' (create, truncating).

        ``retry`` is an optional :class:`~repro.resilience.RetryPolicy`
        applied to every data operation on the returned handle.  With
        ``aio``, writes are posted to the rank's background flush service
        (write-behind); a read drains this rank's posts first.
        """
        if mode not in ("r", "w"):
            raise ValueError(f"bad mode {mode!r}")
        hints = (hints or Hints()).validate()
        fs = _attached_fs(comm)
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
                comm, path, create=mode == "w", retry=retry, aio=aio,
            )
        coll.barrier(comm)
        if comm.rank != 0:
            adio = ADIOFile.open(comm, path, retry=retry, aio=aio)
        return cls(comm, adio, hints)

    def close(self) -> None:
        """Collective close; flushes any write-behind buffer first.

        Posted asynchronous writes stay pending past close -- the flush
        barrier before a manifest commit retires them; the bytes themselves
        landed at post time.
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

    # -- independent I/O -----------------------------------------------------------

    def _target(self, buf_or_nbytes):
        """``(nbytes, out)`` of a read: a byte count reads into new
        ``bytes`` (``out`` is None), an array or buffer is filled."""
        if isinstance(buf_or_nbytes, int):
            return buf_or_nbytes, None
        return self._nbytes(buf_or_nbytes), buf_or_nbytes

    def read_at(self, offset: int, buf_or_nbytes) -> np.ndarray | bytes:
        """Independent read at an explicit (etype-unit) view offset.

        Pass either a numpy array to read into (filled and returned, as
        ``MPI_File_read_at`` fills its buffer) or a byte count (the bytes
        are returned).  Data sieving applies when the view is
        non-contiguous and the ``ds_read`` hint is on.
        """
        self._wb_flush()  # reads must observe buffered writes
        nbytes, out = self._target(buf_or_nbytes)
        segs = self._segments_for(offset, nbytes)
        if self.hints.use_listio and len(segs) > 1:
            return self.adio.read_list(segs, out=out)
        return sieve_read(self.adio, segs, self.hints, out)

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

    def _pointer_step(self, nbytes: int) -> int:
        """Etype units an ``nbytes`` transfer moves the individual pointer.

        A partial etype is rejected here, before any byte is issued.
        """
        if nbytes % self.view.etype.size:
            raise ValueError("partial etype transfer")
        return nbytes // self.view.etype.size

    def write(self, buf) -> int:
        """Independent write at the individual file pointer."""
        step = self._pointer_step(self._nbytes(buf))
        n = self.write_at(self._pointer, buf)
        self._pointer += step
        return n

    # -- collective I/O ---------------------------------------------------------------

    def read_at_all(self, offset: int, buf_or_nbytes) -> np.ndarray | bytes:
        """Collective (two-phase) read; all ranks of the comm must call."""
        self._wb_flush()
        nbytes, out = self._target(buf_or_nbytes)
        segs = self._segments_for(offset, nbytes)
        return collective_read(self.comm, self.adio, segs, self.hints, out)

    def write_at_all(self, offset: int, buf) -> int:
        """Collective (two-phase) write; all ranks of the comm must call."""
        self._wb_flush()
        nbytes = self._nbytes(buf)
        segs = self._segments_for(offset, nbytes)
        collective_write(self.comm, self.adio, segs, buf, self.hints)
        return nbytes

    def write_all(self, buf) -> int:
        """Collective write at the individual file pointer."""
        step = self._pointer_step(self._nbytes(buf))
        n = self.write_at_all(self._pointer, buf)
        self._pointer += step
        return n
