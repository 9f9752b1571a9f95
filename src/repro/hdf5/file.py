"""The parallel HDF5-like library: files, datasets, hyperslab I/O.

The API follows the H5F/H5D surface the ENZO HDF5 port needs, with the
*official-release-circa-2002* behaviours the paper measured built in:

1. **dataset create/close synchronise all ranks** -- both are collective
   with an internal barrier and rank-0 metadata writes;
2. **metadata lives in the data file** -- object headers are allocated
   inline before each dataset's data, so data starts at unaligned offsets
   and every create issues a small metadata write between data writes;
3. **hyperslab packing is recursive** -- selections are charged a per-run
   CPU cost on top of the memcpy, making fine-grained selections expensive;
4. **attributes are written by rank 0 only** -- other ranks wait.

Every file opens through the mpio driver -- MPI-IO's ``File.open``, as
parallel HDF5 sits on ROMIO; data access then goes through the layers under
the ``File`` API directly: the :class:`~repro.mpiio.adio.ADIOFile` handle,
two-phase I/O for collective transfers and data sieving for independent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mpi import collectives as coll
from ..mpi.comm import Comm
from ..mpi.datatypes import _flat_runs
from ..mpiio.adio import ADIOFile
from ..mpiio.file import File
from ..mpiio.hints import Hints
from ..mpiio.sieving import sieve_read, sieve_write
from ..mpiio.two_phase import collective_read, collective_write
from .dataspace import Dataspace, Hyperslab
from .format import (
    HEADER_CAPACITY,
    SUPERBLOCK_SIZE,
    ObjectHeader,
    pack_root_table,
    pack_superblock,
    unpack_root_table,
    unpack_superblock,
)

__all__ = ["H5File", "H5Dataset", "H5Costs"]


@dataclass
class H5Costs:
    """CPU overheads of the library (per rank, seconds).

    ``alignment`` is the later ``H5Pset_alignment`` remedy for the paper's
    misalignment complaint: data regions are allocated at multiples of the
    given boundary (0 = the 2002 behaviour, data packed right after its
    object header).  Set it to the file system's stripe size to stop data
    regions straddling stripe/lock boundaries.  Like ``H5Pset_alignment``,
    only objects of at least ``alignment_threshold`` bytes are moved to a
    boundary -- padding every few-KB subgrid dataset out to a stripe would
    riddle the file with holes and cost a seek per write.
    """

    dataset_create: float = 4e-3  # metadata allocation + flush at creation
    dataset_close: float = 1e-3
    attribute_write: float = 2e-3
    pack_per_run: float = 15e-6  # recursive hyperslab iteration, per run
    open_close: float = 1e-3
    alignment: int = 0
    alignment_threshold: int = 0


class H5Dataset:
    """An open dataset handle (one per rank; operations may be collective)."""

    def __init__(self, f: "H5File", header: ObjectHeader, header_offset: int):
        self._f = f
        self.header = header
        self._header_offset = header_offset
        self.space = Dataspace(header.shape)
        self._closed = False
        self._flat = None  # (selection, its byte runs, its unmerged run count)

    @property
    def name(self) -> str:
        return self.header.name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.header.shape

    @property
    def dtype(self) -> np.dtype:
        return self.header.dtype

    # -- selection plumbing ---------------------------------------------------

    def file_segments(
        self, selection: Optional[Hyperslab] = None
    ) -> list[tuple[int, int]]:
        """The (file_offset, nbytes) byte segments a selection occupies.

        Pure address arithmetic, no simulated cost -- usable by manifest
        builders that need the layout without re-charging the packing CPU
        time the actual I/O already paid.
        """
        sel = selection if selection is not None else self.space.select_all()
        if self._flat is None or self._flat[0] != sel:
            # Flattened once per selection: a write and its manifest share it.
            sel.validate_within(self.space)
            item = self.dtype.itemsize
            self._flat = (sel, *_flat_runs(
                self.space.shape, sel.start, sel.count, sel.stride, sel.block,
                self.header.data_offset, item, item,
            ))
        return self._flat[1]

    def _segments(self, selection: Optional[Hyperslab]) -> list[tuple[int, int]]:
        segs = self.file_segments(selection)
        # Charge the recursive hyperslab packing cost, per unmerged file run.
        self._f.comm.compute(self._flat[2] * self._f.costs.pack_per_run)
        return segs

    def _check_buffer(self, data: np.ndarray, selection: Optional[Hyperslab]):
        sel = selection if selection is not None else self.space.select_all()
        want = sel.selection_shape
        if tuple(data.shape) != tuple(want):
            raise ValueError(f"buffer shape {data.shape} != selection {want}")
        if data.dtype != self.dtype:
            raise TypeError(f"buffer dtype {data.dtype} != dataset {self.dtype}")

    # -- I/O ----------------------------------------------------------------------

    def write(
        self,
        data: np.ndarray,
        selection: Optional[Hyperslab] = None,
        *,
        collective: bool = True,
    ) -> None:
        """Write ``data`` into ``selection`` (defaults to the whole dataset).

        ``collective=True`` uses two-phase MPI-IO and must be called by all
        ranks of the file's communicator; independent mode writes alone.
        """
        self._check_open()
        data = np.asarray(data)
        self._check_buffer(data, selection)
        data = np.ascontiguousarray(data)
        segs = self._segments(selection)
        if collective:
            collective_write(self._f.comm, self._f.adio, segs, data, self._f.hints)
        else:
            sieve_write(self._f.adio, segs, data, self._f.hints)

    def read(
        self,
        selection: Optional[Hyperslab] = None,
        *,
        collective: bool = True,
    ) -> np.ndarray:
        """Read ``selection`` (defaults to all); returns a packed array."""
        self._check_open()
        sel = selection if selection is not None else self.space.select_all()
        segs = self._segments(selection)
        out = np.empty(sel.selection_shape, dtype=self.dtype)
        if collective:
            return collective_read(
                self._f.comm, self._f.adio, segs, self._f.hints, out
            )
        return sieve_read(self._f.adio, segs, self._f.hints, out)

    # -- attributes -----------------------------------------------------------------

    def write_attr(self, name: str, value) -> None:
        """Write an attribute.  Collective; only rank 0 touches the file."""
        self._check_open()
        f = self._f
        f.comm.compute(f.costs.attribute_write)
        coll.barrier(f.comm)  # paper: attr creation limits parallelism
        self.header.attrs[name] = value
        if f.meta_aggregation and f.mode == "w":
            f._defer_header(self.header.name)
        elif f.comm.rank == 0:
            f.adio.write_contig(self._header_offset, self.header.pack())
        coll.barrier(f.comm)

    @property
    def attrs(self) -> dict:
        return dict(self.header.attrs)

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        """Collective close: internal synchronisation (paper overhead #1)."""
        if self._closed:
            return
        f = self._f
        f.comm.compute(f.costs.dataset_close)
        coll.barrier(f.comm)
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"dataset {self.name!r} is closed")


class H5File:
    """An HDF5-like file, opened collectively through the mpio driver."""

    def __init__(
        self,
        comm: Comm,
        adio: ADIOFile,
        mode: str,
        *,
        hints: Hints,
        costs: H5Costs,
        meta_aggregation: bool = False,
    ):
        self.comm = comm
        self.adio = adio
        self.mode = mode
        self.hints = hints
        self.costs = costs
        # The paper's Section 5 remedy for small interleaved metadata
        # writes: defer every object-header write and flush them all as one
        # list-I/O request at file close (what later HDF5 releases call
        # metadata aggregation).  Off by default -- the 2002 behaviour.
        self.meta_aggregation = meta_aggregation
        self._deferred: list[str] = []
        self._headers: dict[str, tuple[ObjectHeader, int]] = {}
        self._order: list[str] = []
        self._alloc = SUPERBLOCK_SIZE
        self._open = True
        if mode == "r":
            self._load()

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, comm: Comm, path: str, **kw) -> "H5File":
        return cls._open_impl(comm, path, "w", **kw)

    @classmethod
    def open(cls, comm: Comm, path: str, **kw) -> "H5File":
        """Open an existing file read-only (``create`` is the write mode)."""
        return cls._open_impl(comm, path, "r", **kw)

    @classmethod
    def _open_impl(
        cls,
        comm: Comm,
        path: str,
        mode: str,
        *,
        hints: Optional[Hints] = None,
        costs: Optional[H5Costs] = None,
        retry=None,
        aio: bool = False,
        meta_aggregation: bool = False,
    ) -> "H5File":
        costs = costs or H5Costs()
        hints = (hints or Hints()).validate()
        comm.compute(costs.open_close)
        # The mpio driver opens through MPI-IO -- collectively, the
        # striping hints applied on create -- and keeps the ADIO handle.
        adio = File.open(
            comm, path, mode, hints=hints, retry=retry,
            aio=aio and mode == "w",
        ).adio
        return cls(
            comm,
            adio,
            mode,
            hints=hints,
            costs=costs,
            meta_aggregation=meta_aggregation,
        )

    def close(self) -> None:
        """Flush the root table and superblock (rank 0); collective."""
        if not self._open:
            return
        self.comm.compute(self.costs.open_close)
        if self.mode == "w":
            coll.barrier(self.comm)
            if self.comm.rank == 0:
                self._flush_deferred_headers()
                table = pack_root_table(
                    [(n, self._headers[n][1]) for n in self._order]
                )
                self.adio.write_contig(self._alloc, table)
                self.adio.write_contig(
                    0, pack_superblock(self._alloc, len(self._order))
                )
        coll.barrier(self.comm)
        self.adio.close()
        self._open = False

    # -- datasets ------------------------------------------------------------------

    def create_dataset(self, name: str, shape, dtype) -> H5Dataset:
        """Create a dataset.  Collective (paper overhead #1).

        The object header is allocated inline, immediately followed by the
        data region (paper overhead #2: interleaving and misalignment).
        """
        self._check_writable()
        if name in self._headers:
            raise ValueError(f"dataset {name!r} already exists")
        dtype = np.dtype(dtype)
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        self.comm.compute(self.costs.dataset_create)
        coll.barrier(self.comm)  # internal sync at creation
        header_offset = self._alloc
        if self.meta_aggregation:
            # Aggregated metadata lives in its own contiguous block written
            # at close (offset assigned then); data regions pack back to
            # back with no inline header holes between them.
            data_offset = self._alloc
        else:
            data_offset = header_offset + HEADER_CAPACITY
        if self.costs.alignment > 1 and nbytes >= self.costs.alignment_threshold:
            a = self.costs.alignment
            data_offset = -(-data_offset // a) * a
        header = ObjectHeader(name, dtype, shape, data_offset, nbytes)
        if self.meta_aggregation:
            self._defer_header(name)
        elif self.comm.rank == 0:
            self.adio.write_contig(header_offset, header.pack())
        self._headers[name] = (header, header_offset)
        self._order.append(name)
        self._alloc = data_offset + nbytes
        coll.barrier(self.comm)
        return H5Dataset(self, header, header_offset)

    def open_dataset(self, name: str) -> H5Dataset:
        try:
            header, offset = self._headers[name]
        except KeyError:
            raise KeyError(f"no dataset named {name!r}") from None
        return H5Dataset(self, header, offset)

    def datasets(self) -> list[str]:
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._headers

    # -- internals -------------------------------------------------------------------

    def _defer_header(self, name: str) -> None:
        """Queue ``name``'s object header for the aggregated close flush."""
        if name not in self._deferred:
            self._deferred.append(name)

    def _flush_deferred_headers(self) -> None:
        """Write every deferred object header as one list-I/O request.

        Runs on rank 0 at close: the headers get offsets in one contiguous
        metadata block allocated after the last data region, replacing the
        per-dataset small interleaved writes the paper measured with a
        single batched sequential request.
        """
        if not self._deferred:
            return
        segments = []
        blobs = []
        for name in self._deferred:
            header, _ = self._headers[name]
            offset = self._alloc
            self._alloc += HEADER_CAPACITY
            self._headers[name] = (header, offset)
            raw = header.pack()
            segments.append((offset, len(raw)))
            blobs.append(raw)
        self.adio.write_list(segments, b"".join(blobs))
        self._deferred.clear()

    def _load(self) -> None:
        raw = self.adio.read_contig(0, SUPERBLOCK_SIZE)
        _, root_offset, count = unpack_superblock(raw)
        size = self.adio.size()
        table = unpack_root_table(
            self.adio.read_contig(root_offset, size - root_offset), count
        )
        for name, offset in table:
            header = ObjectHeader.unpack(self.adio.read_contig(offset, HEADER_CAPACITY))
            self._headers[name] = (header, offset)
            self._order.append(name)
        self._alloc = root_offset

    def _check_writable(self) -> None:
        if not self._open:
            raise ValueError("file is closed")
        if self.mode != "w":
            raise ValueError("file not opened for writing")
