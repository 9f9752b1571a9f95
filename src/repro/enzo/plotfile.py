"""Lightweight plot-file dumps (the Nyx/AMReX ``plt*`` stream).

Checkpoints carry the full restartable state -- all eight baryon fields
plus every particle array -- through the composed I/O strategies, whose
shared-file layouts hardcode the full field set (``GridMeta.field_nbytes``
is what every rank's offset arithmetic is built on).  Plot files are a
different animal: a *subset* of fields, no particles, never restarted
from, written far more often.  They get this dedicated writer instead of
riding the checkpoint machinery.

Layout (AMReX-header-style, flattened to one shared file):

* a fixed 512-byte JSON header (rank 0 writes it; padded with spaces), then
* rank-major contiguous data segments: each rank packs its top-grid piece
  followed by its owned subgrids (id order), each grid contributing its
  plot fields in canonical ``BARYON_FIELDS`` order.

Every rank computes every rank's segment size from the replicated
hierarchy metadata and the block partition, so offsets need no
communication -- the same property the paper's shared-file checkpoint
layouts exploit.
"""

from __future__ import annotations

import json

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..mpi.comm import Comm
from ..mpiio.file import File
from .io_base import IOStats
from .state import RankState

__all__ = ["HEADER_NBYTES", "write_plotfile"]

HEADER_NBYTES = 512


def _canonical_fields(fields) -> tuple[str, ...]:
    """Plot fields in canonical storage order (input order is irrelevant)."""
    wanted = set(fields)
    unknown = wanted - set(BARYON_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown plot field(s) {sorted(unknown)}; "
            f"choose from {', '.join(BARYON_FIELDS)}"
        )
    out = tuple(f for f in BARYON_FIELDS if f in wanted)
    if not out:
        raise ValueError("plot file needs at least one field")
    return out


def _rank_payload_nbytes(state: RankState, rank: int, nfields: int) -> int:
    """Bytes of rank ``rank``'s segment (computable on every rank)."""
    _, sizes = state.partition.block_of(rank)
    ncells = int(np.prod(sizes))
    for gid in state.meta.subgrid_ids():
        if state.owner.get(gid) == rank:
            ncells += state.meta[gid].ncells
    return ncells * 8 * nfields


def write_plotfile(
    comm: Comm,
    state: RankState,
    path: str,
    *,
    fields=("density",),
    cycle: int | None = None,
) -> IOStats:
    """Write one plot file; returns this rank's :class:`IOStats`."""
    names = _canonical_fields(fields)
    nfields = len(names)
    stats = IOStats(strategy="plotfile", operation="plot")
    t0 = comm.clock

    offset = HEADER_NBYTES
    for rank in range(state.rank):
        offset += _rank_payload_nbytes(state, rank, nfields)

    fh = File.open(comm, path, "w")
    if state.rank == 0:
        header = {
            "format": "plotfile",
            "version": 1,
            "fields": list(names),
            "nprocs": state.nprocs,
            "ngrids": len(state.meta),
            "root_dims": list(state.meta.root.dims),
        }
        if cycle is not None:
            header["cycle"] = cycle
        blob = json.dumps(header, sort_keys=True).encode()
        if len(blob) > HEADER_NBYTES:
            fh.close()
            raise ValueError(
                f"plot-file header {len(blob)}B exceeds the fixed "
                f"{HEADER_NBYTES}B slot"
            )
        fh.write_at(0, np.frombuffer(blob.ljust(HEADER_NBYTES), np.uint8))
        stats.bytes_moved += HEADER_NBYTES

    parts = [
        np.ascontiguousarray(state.top_piece.fields[n]).reshape(-1)
        for n in names
    ]
    for gid in sorted(state.subgrids):
        grid = state.subgrids[gid]
        parts.extend(
            np.ascontiguousarray(grid.fields[n]).reshape(-1) for n in names
        )
    buf = np.concatenate(parts) if parts else np.zeros(0)
    fh.write_at(offset, buf)
    stats.bytes_moved += buf.nbytes
    fh.close()
    stats.elapsed = comm.clock - t0
    return stats
