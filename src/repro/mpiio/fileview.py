"""File views: mapping logical datatype streams onto file byte ranges.

An MPI-IO file view is ``(disp, etype, filetype)``: the file is accessed as
if it consisted only of the bytes selected by tiling ``filetype`` from byte
``disp`` onward.  Offsets in the data-access calls count *etype units within
that stream*.  :func:`map_stream` converts a (stream offset, length) request
into absolute ``(file_offset, length)`` segments -- the single primitive the
independent and collective I/O paths both consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from ..mpi.datatypes import BYTE, Datatype

__all__ = ["FileView", "map_stream"]


@dataclass
class FileView:
    """One rank's window onto a file."""

    disp: int = 0
    etype: Datatype = BYTE
    filetype: Datatype = None  # defaults to the etype
    _segs: list = field(default=None, repr=False)  # filetype segments, cached

    def __post_init__(self) -> None:
        if self.filetype is None:
            self.filetype = self.etype
        if self.disp < 0:
            raise ValueError("negative displacement")
        if self.etype.size == 0:
            raise ValueError("etype must have nonzero size")
        if self.filetype.size % self.etype.size != 0:
            raise ValueError("filetype size must be a multiple of etype size")
        self._segs = self.filetype.segments()
        self._tile = np.fromiter(  # the segments as an (n, 2) array
            chain.from_iterable(self._segs), np.int64, 2 * len(self._segs)
        ).reshape(-1, 2)
        self._mapped = None  # (stream_offset, nbytes, segments) of the last map

    @property
    def is_contiguous(self) -> bool:
        """True when the view exposes the file as-is (modulo disp)."""
        segs = self._segs
        return (
            len(segs) == 1
            and segs[0] == (0, self.filetype.size)
            and self.filetype.size == self.filetype.extent
        )

    def byte_offset(self, offset_etypes: int) -> int:
        """Stream byte position of an etype-unit offset."""
        if offset_etypes < 0:
            raise ValueError("negative offset")
        return offset_etypes * self.etype.size

    def map_stream(self, stream_offset: int, nbytes: int) -> list[tuple[int, int]]:
        """Absolute file segments for stream bytes [offset, offset+nbytes).

        Mapped once per range: a write and the manifest entry recording it
        share the list (callers never mutate it).
        """
        if self._mapped is None or self._mapped[:2] != (stream_offset, nbytes):
            segs = map_stream(
                self._tile,
                self.filetype.size,
                self.filetype.extent,
                self.disp,
                stream_offset,
                nbytes,
            )
            self._mapped = (stream_offset, nbytes, segs)
        return self._mapped[2]


def map_stream(
    ft_segments,
    ft_size: int,
    ft_extent: int,
    disp: int,
    stream_offset: int,
    nbytes: int,
) -> list[tuple[int, int]]:
    """Core view arithmetic, independent of the FileView object.

    ``ft_segments`` describe one filetype instance (``(disp, len)`` pairs,
    or their ``(n, 2)`` array); the instance covers ``ft_size`` stream bytes
    and ``ft_extent`` file bytes.  Returns merged, offset-ordered absolute
    segments with Python-int fields.  Only the (tile, segment) pairs the
    range overlaps are visited, all at once.
    """
    if stream_offset < 0 or nbytes < 0:
        raise ValueError("negative stream range")
    if nbytes == 0:
        return []
    if ft_size == 0:
        raise ValueError("cannot map through a zero-size filetype")
    seg = np.asarray(ft_segments, dtype=np.int64).reshape(-1, 2)
    n = len(seg)
    ends = np.cumsum(seg[:, 1])  # stream end of each segment within a tile
    lo, hi = stream_offset, stream_offset + nbytes
    first, last = divmod(lo, ft_size), divmod(hi - 1, ft_size)
    # Pair p is segment p % n of tile p // n; the range holds the pairs from
    # the one with byte lo through the one with byte hi - 1.  A
    # self-overlapping filetype's segments cover less than ft_size stream
    # bytes: a byte in that gap belongs to no segment, and the pieces it
    # leaves empty are dropped.
    at_lo = int(np.searchsorted(ends, first[1], side="right"))
    at_hi = min(int(np.searchsorted(ends, last[1], side="right")), n - 1)
    tile, i = np.divmod(np.arange(first[0] * n + at_lo, last[0] * n + at_hi + 1), n)
    s_hi = tile * ft_size + ends[i]
    s_lo = s_hi - seg[i, 1]
    a, b = np.maximum(s_lo, lo), np.minimum(s_hi, hi)
    keep = b > a
    off = (disp + tile * ft_extent + seg[i, 0] + (a - s_lo))[keep]
    length = (b - a)[keep]
    # A tile's last segment may abut the next tile's first: merge those.
    head = np.ones(len(off), dtype=bool)
    head[1:] = off[1:] != off[:-1] + length[:-1]
    at = np.flatnonzero(head)
    if not len(at):
        return []
    return list(zip(off[at].tolist(), np.add.reduceat(length, at).tolist()))
