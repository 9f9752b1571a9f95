"""Dataspaces and hyperslab selections.

A dataspace is the n-D extent of a dataset; a hyperslab selects a regular
region of it: ``count`` blocks of ``block`` elements spaced ``stride`` apart
in each dimension, starting at ``start`` (H5Sselect_hyperslab semantics;
``stride=None``/``block=None`` default to 1, giving the plain subarray case
the ENZO port uses).

``H5Dataset.file_segments`` flattens a selection into contiguous byte runs
of the row-major dataset; the unmerged run count is the unit the paper's
"recursive hyperslab packing" overhead is charged per.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Dataspace", "Hyperslab"]


@dataclass(frozen=True)
class Dataspace:
    """The extent of a dataset: an n-D shape (row-major storage)."""

    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if not self.shape:
            raise ValueError("zero-rank dataspace")
        if any(s < 0 for s in self.shape):
            raise ValueError("negative extent")

    @property
    def rank(self) -> int:
        return len(self.shape)

    def select_all(self) -> "Hyperslab":
        return Hyperslab(start=(0,) * self.rank, count=self.shape)


@dataclass(frozen=True)
class Hyperslab:
    """A regular selection within a dataspace."""

    start: tuple[int, ...]
    count: tuple[int, ...]
    stride: Optional[tuple[int, ...]] = None
    block: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        start = tuple(int(s) for s in self.start)
        count = tuple(int(c) for c in self.count)
        rank = len(start)
        if len(count) != rank:
            raise ValueError("start/count rank mismatch")
        stride = (
            tuple(int(s) for s in self.stride) if self.stride is not None
            else (1,) * rank
        )
        block = (
            tuple(int(b) for b in self.block) if self.block is not None
            else (1,) * rank
        )
        if len(stride) != rank or len(block) != rank:
            raise ValueError("stride/block rank mismatch")
        if any(s < 0 for s in start) or any(c < 0 for c in count):
            raise ValueError("negative start or count")
        if any(s < 1 for s in stride) or any(b < 1 for b in block):
            raise ValueError("stride and block must be >= 1")
        if any(b > s for b, s in zip(block, stride)):
            raise ValueError("block larger than stride would overlap")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "block", block)

    @property
    def rank(self) -> int:
        return len(self.start)

    @property
    def selection_shape(self) -> tuple[int, ...]:
        """Shape of the selected data when packed into memory."""
        return tuple(c * b for c, b in zip(self.count, self.block))

    def extent_needed(self) -> tuple[int, ...]:
        """Minimal dataspace shape containing the selection."""
        out = []
        for st, c, sr, b in zip(self.start, self.count, self.stride, self.block):
            out.append(st + (c - 1) * sr + b if c > 0 else st)
        return tuple(out)

    def validate_within(self, space: Dataspace) -> None:
        if self.rank != space.rank:
            raise ValueError(
                f"selection rank {self.rank} != dataspace rank {space.rank}"
            )
        for dim, (need, have) in enumerate(zip(self.extent_needed(), space.shape)):
            if need > have:
                raise ValueError(
                    f"selection exceeds dataspace in dim {dim}: {need} > {have}"
                )

