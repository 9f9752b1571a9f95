"""Format backends: how arrays become bytes in a file.

The paper's top layer is the *format* level -- the self-describing object
model the bytes go through: HDF4's SD interface (one sequential library
call per array), a raw shared file (offsets derived externally, nothing in
the file but data), or HDF5 datasets written through hyperslab selections
over the mpio driver.

A format object is a stateless factory; ``open_write``/``open_read``
return a *session* bound to one checkpoint file (or, for file-per-grid
formats, one checkpoint's family of files).  ``session_kind`` must match
the layout planner's ``kind``.

ENZO moves two kinds of array, in a fixed per-grid order (Section 2.1): a
rank's block of a regular 3-D baryon field, and a contiguous slice (or the
whole) of a 1-D array.  A shared-file session exposes exactly that, keyed
by the layout's ``(grid_key, kind, name)``, with shapes and dtypes taken
from ``layout.extent``:

* ``begin_block_write(key, name, arr, block) -> FieldWriteOp`` and
  ``read_block(key, name, block | None)`` -- *collective*: every rank
  calls; ``block`` is this rank's ``(starts, sizes)``, ``None`` a rank
  that holds no block of this grid but still takes part;
* ``write_array(key, kind, name, arr | None, start=0) -> nbytes`` and
  ``read_array(key, kind, name, lo=0, hi=None, want=True)`` --
  *independent*: elements ``[start, start + len(arr))`` / ``[lo, hi)`` of
  the array (``hi=None``: all of it); ``arr=None`` / ``want=False`` is a
  rank with no data of its own, calling only because of
  ``collective_metadata``.

Each primitive performs its format's exact sequence of simulated operations
(library CPU costs, barriers, file-system requests).
``collective_metadata`` says whether per-array metadata operations (HDF5
dataset create/open/close) synchronise all ranks, in which case every rank
must walk every grid's arrays even when it owns no data -- the paper's
overhead #1.  It selects the *set* of grids a rank walks, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..amr.particles import PARTICLE_ARRAYS, ParticleSet
from ..enzo.layout import TOP
from ..hdf4.sd import SDFile
from ..hdf5.dataspace import Hyperslab
from ..hdf5.file import H5Costs, H5File
from ..mpi.datatypes import FLOAT64, Subarray
from ..mpiio.file import File
from ..mpiio.hints import Hints
from ..resilience.manifest import entry_for_bytes, entry_for_segments

__all__ = [
    "FieldWriteOp",
    "HDF4SDFormat",
    "HDF5Format",
    "RawSharedFormat",
    "dset_name",
]


@dataclass
class FieldWriteOp:
    """A prepared block write the transport decides how to issue.

    ``collective``/``independent`` are the two issue paths (the transport
    picks, possibly degrading via the resilience layer); ``finish`` records
    the write for the manifest and runs the format's post-write epilogue
    (attribute + close for HDF5, nothing more for raw).
    """

    collective: Callable[[], None]
    independent: Callable[[], None]
    finish: Callable[[], None]


def dset_name(grid_key, kind: str, array_name: str) -> str:
    """HDF5 dataset path; ``kind`` disambiguates field vs particle arrays."""
    return f"{grid_key}/{kind}/{array_name}"


# -- HDF4 SD (file per grid) -------------------------------------------------


def write_grid_sd(sd: SDFile, grid, entries: list | None = None) -> int:
    """Write one grid's arrays (canonical order) into an open SD file.

    Appends a manifest entry per array to ``entries`` when given.
    """
    path = sd._adio.path
    nbytes = 0

    def _put(name: str, arr) -> None:
        nonlocal nbytes
        sds = sd.create(name, arr.dtype, arr.shape)
        sds.write(arr)
        if entries is not None:
            entries.append(entry_for_bytes(
                f"{path}:{name}", path, sds.entry.data_offset, arr
            ))
        nbytes += arr.nbytes

    for name, arr in grid.fields.items():
        _put(name, arr)
    parts = grid.particles
    # "particle/" prefix keeps particle velocity_* distinct from the baryon
    # velocity fields (real ENZO names these particle_velocity_x etc.).
    for name in PARTICLE_ARRAYS:
        _put(f"particle/{name}", np.ascontiguousarray(parts.array(name)))
    return nbytes


def write_grid_sd_batched(sd: SDFile, grid, entries: list | None = None) -> int:
    """:func:`write_grid_sd` with all data writes posted as ONE batch.

    Same bytes at the same offsets and the same per-call library overheads,
    but the grid file's array writes go through a single
    :meth:`~repro.mpiio.adio.ADIOFile.write_vector` call -- one
    schedule-point crossing per grid instead of one per array.  Used only
    by scale-mode strategies (``batch_requests``); the pinned-digest path
    keeps per-array scheduling.
    """
    path = sd._adio.path
    ops: list[tuple[int, np.ndarray]] = []
    nbytes = 0

    def _put(name: str, arr) -> None:
        nonlocal nbytes
        arr = np.ascontiguousarray(arr)
        sds = sd.create(name, arr.dtype, arr.shape)
        sd._overhead()  # the SDwritedata library call still costs CPU
        ops.append((sds.entry.data_offset, arr))
        if entries is not None:
            entries.append(entry_for_bytes(
                f"{path}:{name}", path, sds.entry.data_offset, arr
            ))
        nbytes += arr.nbytes

    for name, arr in grid.fields.items():
        _put(name, arr)
    parts = grid.particles
    for name in PARTICLE_ARRAYS:
        _put(f"particle/{name}", np.ascontiguousarray(parts.array(name)))
    sd._adio.write_vector(ops)
    return nbytes


def read_grid_sd(sd: SDFile, shell) -> None:
    """Fill a grid shell from an open SD file (canonical order)."""
    for name in shell.fields:
        shell.fields[name] = sd.select(name).read()
    arrays = {
        name: sd.select(f"particle/{name}").read() for name in PARTICLE_ARRAYS
    }
    shell.particles = ParticleSet.from_arrays(arrays)


class HDF4SDFormat:
    """The sequential HDF4 SD object model, one file per grid."""

    name = "hdf4-sd"
    session_kind = "file-per-grid"
    takes_hints = False

    def open_write(self, ctx, meta, layout):
        return _SDSession(ctx)

    def open_read(self, ctx, meta, layout):
        return _SDSession(ctx)


class _SDSession:
    collective_metadata = False

    def __init__(self, ctx):
        self.ctx = ctx

    def close(self) -> None:
        pass  # each grid's file was opened and closed inline

    def write_grid(self, path: str, grid) -> int:
        sd = SDFile.start(self.ctx.comm, path, "w", retry=self.ctx.strategy.retry)
        if self.ctx.strategy.batch_requests:
            nbytes = write_grid_sd_batched(sd, grid, self.ctx.entries)
        else:
            nbytes = write_grid_sd(sd, grid, self.ctx.entries)
        sd.end()
        return nbytes

    def read_grid(self, path: str, shell) -> None:
        sd = SDFile.start(self.ctx.comm, path, "r", retry=self.ctx.strategy.retry)
        read_grid_sd(sd, shell)
        sd.end()


# -- shared-file sessions ----------------------------------------------------


def section_name(key, kind: str, name: str) -> str:
    """Rank-free name of one array: its scda section, its manifest entry."""
    prefix = key if key == TOP else f"grid{key}"
    return f"{prefix}/{kind}/{name}"


class _SharedFileSession:
    """What the shared-file sessions have in common: the manifest record."""

    def __init__(self, ctx, layout):
        self.ctx = ctx
        self.layout = layout

    def _commit(self, key, kind, name, segments, arr) -> None:
        """Record ``arr``, just written over ``segments``, for the manifest.

        Every write primitive ends here (a block write through
        ``FieldWriteOp.finish``).  A top-grid array is written by many
        ranks, so its per-rank entries carry a rank suffix.
        """
        entry = section_name(key, kind, name)
        if key == TOP:
            entry += f"/r{self.ctx.comm.rank:04d}"
        if arr.nbytes:
            made = entry_for_segments(entry, self.ctx.base, segments, arr)
        else:
            # entry_for_segments drops empty runs, but an empty array still
            # records ((offset, 0),): the pickled length of the gathered
            # entries is the wire size of write_manifest's gather.
            made = entry_for_bytes(entry, self.ctx.base, segments[0][0], arr)
        self.ctx.entries.append(made)


# -- raw shared file over MPI-IO ---------------------------------------------


class RawSharedFormat:
    """Nothing in the file but data; every offset comes from the layout."""

    name = "raw"
    session_kind = "shared-file"
    takes_hints = True

    def __init__(self, hints: Hints | None = None):
        self.hints = hints or Hints()

    def open_write(self, ctx, meta, layout):
        return _RawSession(self, ctx, layout, "w")

    def open_read(self, ctx, meta, layout):
        return _RawSession(self, ctx, layout, "r")


class _RawSession(_SharedFileSession):
    collective_metadata = False

    def __init__(self, fmt: RawSharedFormat, ctx, layout, mode: str):
        super().__init__(ctx, layout)
        self.fh = File.open(
            ctx.comm, ctx.base, mode, hints=fmt.hints, retry=ctx.strategy.retry,
            aio=ctx.strategy.aio if mode == "w" else None,
        )

    def close(self) -> None:
        self.fh.close()

    def reset_view(self) -> None:
        self.fh.set_view(0)  # back to the plain byte view

    def _view_block(self, key, name, block) -> None:
        ext = self.layout.extent(key, name)
        starts, sizes = block
        self.fh.set_view(
            ext.offset, FLOAT64, Subarray(ext.shape, sizes, starts, FLOAT64)
        )

    def begin_block_write(self, key, name, arr, block) -> FieldWriteOp:
        self._view_block(key, name, block)
        fh = self.fh
        return FieldWriteOp(
            collective=lambda: fh.write_at_all(0, arr),
            independent=lambda: fh.write_at(0, arr),
            finish=lambda: self._commit(
                key, "field", name, fh.view_segments(0, arr.nbytes), arr
            ),
        )

    def read_block(self, key, name, block):
        if block is None:
            # Inactive ranks still participate in the collective call.
            self.fh.set_view(self.layout.extent(key, name).offset)
            self.fh.read_at_all(0, 0)
            return None
        self._view_block(key, name, block)
        return self.fh.read_at_all(0, np.empty(block[1], dtype=np.float64))

    def write_array(self, key, kind, name, arr, start=0) -> int:
        if arr is None:
            return 0
        ext = self.layout.extent(key, name, kind)
        arr = np.ascontiguousarray(arr)
        offset = ext.offset + start * ext.dtype.itemsize
        self.fh.write_at(offset, arr)
        self._commit(key, kind, name, [(offset, arr.nbytes)], arr)
        return arr.nbytes

    def read_array(self, key, kind, name, lo=0, hi=None, want=True):
        if not want:
            return None
        ext = self.layout.extent(key, name, kind)
        shape = ext.shape if hi is None else (hi - lo,)
        item = ext.dtype.itemsize
        raw = self.fh.read_at(ext.offset + lo * item, int(np.prod(shape)) * item)
        return np.frombuffer(raw, dtype=ext.dtype).reshape(shape).copy()


# -- HDF5 over the mpio driver -----------------------------------------------


class HDF5Format:
    """HDF5 datasets and hyperslabs, with the 2002 overheads built in.

    ``meta_aggregation`` and a non-zero ``costs.alignment`` are the paper's
    Section 5 remedies: batch the per-dataset object-header writes into one
    list-I/O flush at file close, and pad data regions to a file-system
    friendly boundary.
    """

    name = "hdf5"
    session_kind = "shared-file"
    takes_hints = True

    def __init__(
        self,
        hints: Hints | None = None,
        costs: H5Costs | None = None,
        meta_aggregation: bool = False,
    ):
        self.hints = hints or Hints()
        self.costs = costs or H5Costs()
        self.meta_aggregation = meta_aggregation

    def open_write(self, ctx, meta, layout):
        f = H5File.create(
            ctx.comm, ctx.base, hints=self.hints,
            costs=self.costs, retry=ctx.strategy.retry, aio=ctx.strategy.aio,
            meta_aggregation=self.meta_aggregation,
        )
        return _H5Session(ctx, layout, f)

    def open_read(self, ctx, meta, layout):
        f = H5File.open(
            ctx.comm, ctx.base, hints=self.hints,
            costs=self.costs, retry=ctx.strategy.retry,
        )
        return _H5Session(ctx, layout, f)


class _H5Session(_SharedFileSession):
    # Dataset create/open/close are collective in parallel HDF5, so every
    # rank walks every dataset even when only the owner moves data.
    collective_metadata = True

    def __init__(self, ctx, layout, f: H5File):
        super().__init__(ctx, layout)
        self.f = f

    def close(self) -> None:
        self.f.close()

    def reset_view(self) -> None:
        pass  # HDF5 addresses through selections, not file views

    def begin_block_write(self, key, name, arr, block) -> FieldWriteOp:
        ext = self.layout.extent(key, name)
        d = self.f.create_dataset(dset_name(key, "field", name), ext.shape, ext.dtype)
        sel = Hyperslab(start=block[0], count=block[1])

        def finish():
            self._commit(key, "field", name, d.file_segments(sel), arr)
            d.write_attr("level", 0)  # only the top grid is written in blocks
            d.close()

        return FieldWriteOp(
            collective=lambda: d.write(arr, sel, collective=True),
            independent=lambda: d.write(arr, sel, collective=False),
            finish=finish,
        )

    def read_block(self, key, name, block):
        d = self.f.open_dataset(dset_name(key, "field", name))
        if block is None:
            # Collective read with an empty selection.
            zeros = (0,) * len(d.shape)
            d.read(Hyperslab(start=zeros, count=zeros), collective=True)
            got = None
        else:
            got = d.read(Hyperslab(start=block[0], count=block[1]), collective=True)
        d.close()
        return got

    def write_array(self, key, kind, name, arr, start=0) -> int:
        ext = self.layout.extent(key, name, kind)
        # HDF5 has no zero-sized dataset: an empty particle array keeps one
        # (never written) element.
        shape = ext.shape if kind == "field" else (max(ext.shape[0], 1),)
        d = self.f.create_dataset(dset_name(key, kind, name), shape, ext.dtype)
        moved = 0
        if arr is not None and arr.size:
            arr = np.ascontiguousarray(arr)
            # A whole field goes out unselected; a particle slice is an
            # explicit hyperslab.
            sel = None if kind == "field" else Hyperslab(
                start=(start,), count=(len(arr),)
            )
            d.write(arr, sel, collective=False)
            self._commit(key, kind, name, d.file_segments(sel), arr)
            moved = arr.nbytes
        d.close()
        return moved

    def read_array(self, key, kind, name, lo=0, hi=None, want=True):
        ext = self.layout.extent(key, name, kind)
        d = self.f.open_dataset(dset_name(key, kind, name))
        got = None
        if want and kind == "field":
            got = d.read(collective=False)
        elif want:
            hi = ext.shape[0] if hi is None else hi
            if hi > lo:
                got = d.read(
                    Hyperslab(start=(lo,), count=(hi - lo,)), collective=False
                )
            else:
                got = np.empty(0, dtype=ext.dtype)
        d.close()
        return got
