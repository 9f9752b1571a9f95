"""The HDF4 SD (Scientific Data Set) interface: sequential, one process.

API shape mirrors the real library closely enough that the ENZO code paths
read naturally::

    sd = SDFile.start(comm, "dump", "w")      # SDstart
    sds = sd.create("density", np.float64, (64, 64, 64))   # SDcreate
    sds.write(density_array)                  # SDwritedata (whole array)
    sd.end()                                  # SDend

    sd = SDFile.start(comm, "dump", "r")
    arr = sd.select("density").read()         # SDselect + SDreaddata

HDF4 has no parallel interface: every call runs on the calling rank alone
and issues sequential, blocking file-system requests through the ADIO layer
(this is exactly why the original ENZO funnels everything through processor
0).  A small per-call software overhead models the library's bookkeeping.
"""

from __future__ import annotations

import numpy as np

from ..mpi.comm import Comm
from ..mpiio.adio import ADIOFile
from .format import (
    HEADER_SIZE,
    DDEntry,
    pack_dd,
    pack_header,
    unpack_dds,
    unpack_header,
)

__all__ = ["SDFile", "SDS"]

#: Per-library-call software overhead (seconds); HDF4's internal DD/linked
#: list management was cheap but not free.
SD_CALL_OVERHEAD = 50e-6


class SDS:
    """A selected/created scientific data set within an :class:`SDFile`."""

    def __init__(self, sd: "SDFile", entry: DDEntry):
        self._sd = sd
        self.entry = entry

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.entry.shape

    @property
    def dtype(self) -> np.dtype:
        return self.entry.dtype

    def write(self, data: np.ndarray) -> None:
        """Write the entire array (SDwritedata with full extent)."""
        self._sd._check_writable()
        data = np.ascontiguousarray(data, dtype=self.entry.dtype)
        if data.shape != self.entry.shape:
            raise ValueError(
                f"data shape {data.shape} != dataset shape {self.entry.shape}"
            )
        self._sd._overhead()
        self._sd._adio.write_contig(self.entry.data_offset, data)

    def read(self) -> np.ndarray:
        """Read the entire array (straight from the file into a new one)."""
        self._sd._overhead()
        return self._sd._adio.read_contig(
            self.entry.data_offset, self.entry.data_nbytes,
            out=np.empty(self.entry.shape, dtype=self.entry.dtype),
        )


class SDFile:
    """An open HDF4 SD file bound to one rank."""

    def __init__(self, adio: ADIOFile, comm: Comm, mode: str):
        self._adio = adio
        self._comm = comm
        self.mode = mode
        self._entries: list[DDEntry] = []
        self._by_name: dict[str, DDEntry] = {}
        self._data_end = HEADER_SIZE
        self._open = True
        if mode == "r":
            self._load_index()

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def start(
        cls,
        comm: Comm,
        path: str,
        mode: str = "r",
        *,
        retry=None,
    ) -> "SDFile":
        """SDstart: open ``path`` on the calling rank only."""
        if mode not in ("r", "w"):
            raise ValueError(f"bad mode {mode!r}")
        adio = ADIOFile.open(comm, path, create=mode == "w", retry=retry)
        return cls(adio, comm, mode)

    def end(self) -> None:
        """SDend: flush the DD table and header (write mode), then close."""
        if not self._open:
            return
        if self.mode == "w":
            self._overhead()
            dd_offset = self._data_end
            blob = b"".join(pack_dd(e) for e in self._entries)
            self._adio.write_contig(dd_offset, blob)
            self._adio.write_contig(0, pack_header(dd_offset, len(self._entries)))
        self._adio.close()
        self._open = False

    # -- dataset management ------------------------------------------------------

    def create(self, name: str, dtype, shape) -> SDS:
        """SDcreate: allocate a new named array after the current data end."""
        self._check_writable()
        if name in self._by_name:
            raise ValueError(f"dataset {name!r} already exists")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        entry = DDEntry(name, dtype, shape, self._data_end, nbytes)
        self._entries.append(entry)
        self._by_name[name] = entry
        self._data_end += nbytes
        self._overhead()
        return SDS(self, entry)

    def select(self, name: str) -> SDS:
        """SDselect: look up a dataset by name."""
        self._overhead()
        try:
            return SDS(self, self._by_name[name])
        except KeyError:
            raise KeyError(f"no dataset named {name!r}") from None

    def datasets(self) -> list[str]:
        """Names in creation order."""
        return [e.name for e in self._entries]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- internals ---------------------------------------------------------------

    def _load_index(self) -> None:
        raw = self._adio.read_contig(0, HEADER_SIZE)
        _, dd_offset, ndd = unpack_header(raw)
        size = self._adio.size()
        blob = self._adio.read_contig(dd_offset, size - dd_offset)
        self._entries = unpack_dds(blob, ndd)
        self._by_name = {e.name: e for e in self._entries}
        self._data_end = dd_offset

    def _check_writable(self) -> None:
        if not self._open:
            raise ValueError("file is closed")
        if self.mode != "w":
            raise ValueError("file not opened for writing")

    def _overhead(self) -> None:
        self._comm.compute(SD_CALL_OVERHEAD)
