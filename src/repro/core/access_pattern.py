"""Access-pattern classification (the paper's Section 3.1 analysis).

The paper's central observation: ENZO's arrays fall into two classes --

* **regular** -- the 3-D baryon fields, partitioned (Block, Block, Block);
  every rank's piece is a subarray of the global array, so collective I/O
  with subarray file views applies;
* **irregular** -- the 1-D particle arrays, partitioned by particle
  position; no closed-form per-rank mapping exists, so the right treatment
  is block-wise contiguous I/O plus redistribution (read) or a parallel
  sort plus block-wise I/O (write).

This module classifies observed per-rank access descriptors into those
classes (plus plain ``contiguous``), which the optimizer keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = ["PatternClass", "AccessDescriptor", "classify_accesses"]


class PatternClass(Enum):
    """How a distributed array is carved among ranks."""

    CONTIGUOUS = "contiguous"  # each rank one contiguous range
    REGULAR_BLOCK = "regular_block"  # n-D (Block, ..., Block) subarrays
    IRREGULAR = "irregular"  # anything position/value dependent


@dataclass(frozen=True)
class AccessDescriptor:
    """One rank's declared access to one global array.

    For n-D block accesses, ``starts``/``subsizes`` describe the subarray;
    for 1-D accesses they are 1-tuples.  ``indices`` is set instead when the
    selection is an explicit element list (the irregular case).
    """

    global_shape: tuple[int, ...]
    starts: Optional[tuple[int, ...]] = None
    subsizes: Optional[tuple[int, ...]] = None
    indices: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if (self.starts is None) != (self.subsizes is None):
            raise ValueError("starts and subsizes must be given together")
        if self.starts is None and self.indices is None:
            raise ValueError("descriptor needs either a subarray or indices")
        if self.starts is not None and self.indices is not None:
            raise ValueError("descriptor cannot be both subarray and indices")
        if self.starts is not None:
            if not (
                len(self.starts) == len(self.subsizes) == len(self.global_shape)
            ):
                raise ValueError("rank mismatch")
            for s, n, g in zip(self.starts, self.subsizes, self.global_shape):
                if s < 0 or n < 0 or s + n > g:
                    raise ValueError("subarray outside the global array")


def classify_accesses(
    descriptors: Sequence[AccessDescriptor],
) -> PatternClass:
    """Classify the union of all ranks' accesses to one array.

    * every descriptor an explicit index list -> IRREGULAR;
    * subarrays that tile the full array and are contiguous in the flat
      file order (1-D splits, or splits along the first axis only)
      -> CONTIGUOUS;
    * subarrays that tile the full array -> REGULAR_BLOCK;
    * anything else (overlap, holes, mixed kinds) -> IRREGULAR.
    """
    if not descriptors:
        raise ValueError("no descriptors to classify")
    if any(d.indices is not None for d in descriptors):
        return PatternClass.IRREGULAR
    shape = descriptors[0].global_shape
    if any(d.global_shape != shape for d in descriptors):
        return PatternClass.IRREGULAR
    # Exact-cover check on a counting grid (coarse but exact: benchmark
    # decompositions have at most a few thousand blocks).
    cover = np.zeros(shape, dtype=np.int16)
    for d in descriptors:
        sel = tuple(slice(s, s + n) for s, n in zip(d.starts, d.subsizes))
        cover[sel] += 1
    if not (cover == 1).all():
        return PatternClass.IRREGULAR
    # Contiguous iff every block spans the full extent of all axes but the
    # first (row-major order) -- then each rank's bytes are one file run.
    def is_contig(d: AccessDescriptor) -> bool:
        return all(
            s == 0 and n == g
            for s, n, g in list(zip(d.starts, d.subsizes, shape))[1:]
        )

    if all(is_contig(d) for d in descriptors):
        return PatternClass.CONTIGUOUS
    return PatternClass.REGULAR_BLOCK
