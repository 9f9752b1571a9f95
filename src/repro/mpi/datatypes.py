"""MPI datatypes: the named elementary types and the subarray constructor.

A derived datatype describes a (possibly non-contiguous) layout of bytes
relative to a base address.  MPI-IO uses them twice over: as the *etype*
(elementary unit) and *filetype* (access template) of a file view, and as the
memory layout of user buffers.  The paper's collective-I/O optimisation hinges
on the ``subarray`` constructor: each processor describes its (Block, Block,
Block) piece of a 3-D baryon field as a subarray of the global array, and the
MPI-IO layer turns the union of those descriptions into large contiguous
accesses.  That is the only derived datatype the stack builds.

The key operation is :meth:`Datatype.segments`: flatten one instance of the
type into ``(displacement, length)`` byte runs, merged where adjacent.  All
higher layers (file views, two-phase I/O, data sieving) work on these flat
segment lists.  :func:`_flat_runs` is the one flattener, for subarrays
and for HDF5 hyperslabs alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Datatype", "Named", "Subarray", "BYTE", "FLOAT64", "merge_segments"]


def _flat_runs(shape, start, count, stride, block, offset=0, scale=1, size=1,
               fold=True) -> tuple[list[tuple[int, int]], int]:
    """Sorted ``(offset + e * scale, n * size)`` runs of a row-major selection.

    Dimension ``d`` selects the indices ``start + i * stride + j`` for
    ``i < count``, ``j < block`` (a subarray is ``count = stride = 1``).
    Closed form, O(runs): with ``fold``, the trailing dimensions selected
    whole join the run length and single-index dimensions only shift the
    first offset; every other outer index adds runs.  Such runs cannot abut
    unless the innermost cut dimension is strided and spans its whole
    extent, the one case merged.  Also returns the number of runs along the
    last axis alone (the runs of ``fold=False``), HDF5's packing unit.
    """
    inner = [math.prod(shape[d + 1:]) for d in range(len(shape))]
    dims = [(st, 1, 1, c * b) if c == 1 or sr == b else (st, c, sr, b)
            for st, c, sr, b in zip(start, count, stride, block)]
    if 0 in (c * b for _, c, _, b in dims):
        return [], 0
    rows = math.prod(c * b for _, c, _, b in dims[:-1]) * dims[-1][1]
    k = len(dims) - 1
    while fold and k and dims[k] == (0, 1, 1, shape[k]):
        k -= 1
    first = offset + scale * sum(d[0] * s for d, s in zip(dims, inner))
    # What each dimension that adds runs adds to the first run's offset.
    steps = [[scale * s * (i * sr + j) for i in range(c) for j in range(b)]
             for (_, c, sr, b), s in zip(dims[:k], inner) if c * b > 1]
    st, c, sr, b = dims[k]
    if c > 1:
        steps.append([scale * inner[k] * sr * i for i in range(c)])
    # A Python product: numpy's sum is no faster once its starts are made
    # into the Python-int tuples every caller takes.
    starts = [first]
    for step in steps:
        starts = [a + x for a in starts for x in step]
    runs = [(a, b * inner[k] * size) for a in starts]
    if fold and c > 1 and st == 0 and (c - 1) * sr + b == shape[k]:
        runs = merge_segments(runs)  # a row's last block abuts the next's first
    return runs, rows


def merge_segments(segs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge adjacent/overlapping ``(disp, len)`` runs; keeps offset order.

    Input must already be sorted by displacement (:func:`_flat_runs`
    produces sorted runs).
    """
    out: list[tuple[int, int]] = []
    for disp, length in segs:
        if length == 0:
            continue
        if out and out[-1][0] + out[-1][1] >= disp:
            last_disp, last_len = out[-1]
            out[-1] = (last_disp, max(last_disp + last_len, disp + length) - last_disp)
        else:
            out.append((disp, length))
    return out


class Datatype:
    """Abstract datatype: a byte layout with a size and an extent.

    ``size``   -- number of *useful* bytes in one instance;
    ``extent`` -- the stride between consecutive instances (covers holes).
    """

    size: int
    extent: int

    def segments(self, base: int = 0) -> list[tuple[int, int]]:
        """Flattened ``(displacement + base, length)`` runs of one instance."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} size={self.size} extent={self.extent}>"


@dataclass(frozen=True, repr=False)
class Named(Datatype):
    """A named elementary type, mirroring the MPI predefined types."""

    mpi_name: str
    np_dtype: np.dtype

    def __post_init__(self):
        object.__setattr__(self, "np_dtype", np.dtype(self.np_dtype))

    @property
    def size(self) -> int:  # type: ignore[override]
        return self.np_dtype.itemsize

    @property
    def extent(self) -> int:  # type: ignore[override]
        return self.np_dtype.itemsize

    def segments(self, base: int = 0) -> list[tuple[int, int]]:
        return [(base, self.size)]

    def __repr__(self) -> str:
        return f"MPI.{self.mpi_name}"


BYTE = Named("BYTE", np.dtype(np.uint8))
FLOAT64 = Named("FLOAT64", np.dtype(np.float64))


class Subarray(Datatype):
    """An n-D subarray of an n-D global array (``MPI_Type_create_subarray``).

    This is the datatype behind the paper's (Block, Block, Block) file views:
    the global baryon field is ``shape``, this processor's piece is
    ``subsizes`` starting at ``starts``.  Storage order is C (row-major,
    the last dimension fastest) to match how the simulated files store
    arrays; the paper's x-fastest Fortran layout is the mirror image and is
    covered by tests constructing transposed views.
    """

    def __init__(
        self,
        shape: Sequence[int],
        subsizes: Sequence[int],
        starts: Sequence[int],
        base: Datatype,
    ):
        shape = tuple(int(s) for s in shape)
        subsizes = tuple(int(s) for s in subsizes)
        starts = tuple(int(s) for s in starts)
        if not (len(shape) == len(subsizes) == len(starts)):
            raise ValueError("shape, subsizes and starts must have equal rank")
        if not shape:
            raise ValueError("zero-rank subarray")
        for dim, (n, sub, st) in enumerate(zip(shape, subsizes, starts)):
            if n < 0 or sub < 0 or st < 0 or st + sub > n:
                raise ValueError(
                    f"dimension {dim}: subarray [{st}, {st + sub}) does not "
                    f"fit in [0, {n})"
                )
        self.shape = shape
        self.subsizes = subsizes
        self.starts = starts
        self.base = base
        self.size = math.prod(subsizes) * base.size
        self.extent = math.prod(shape) * base.extent

    def segments(self, base: int = 0) -> list[tuple[int, int]]:
        if self.size == 0:
            return []
        ones = (1,) * len(self.shape)
        ext = self.base.extent
        # Whole trailing rows abut only when the elements pack (size == extent).
        return _flat_runs(self.shape, self.starts, ones, ones, self.subsizes,
                          base, ext, self.base.size, fold=self.base.size == ext)[0]

