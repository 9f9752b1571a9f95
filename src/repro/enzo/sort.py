"""Parallel sample sort of particles by ID.

The paper (3.2.1): "To perform a parallel write for particle data, all
processors perform a parallel sort according to the particle ID and then all
processors independently perform block-wise MPI write."

Sample sort: each rank sorts locally, contributes ``OVERSAMPLE`` samples,
rank 0 picks P-1 splitters from the gathered sample, splitters are broadcast,
particles are exchanged all-to-all by splitter bucket, and each rank merges
its bucket.  Afterwards rank r holds a contiguous ID range, and an exclusive
scan of bucket sizes gives everyone's write offset.
"""

from __future__ import annotations

import numpy as np

from ..amr.particles import ParticleSet
from ..mpi import collectives as coll
from ..mpi.comm import Comm

__all__ = ["parallel_sort_by_id"]

#: splitter samples each rank contributes
OVERSAMPLE = 8


def parallel_sort_by_id(
    comm: Comm, particles: ParticleSet
) -> tuple[ParticleSet, int, list[int]]:
    """Globally sort particles by ID across the communicator.

    Returns ``(my_sorted_chunk, my_element_offset, counts_per_rank)``:
    concatenating the chunks in rank order yields the globally ID-sorted
    particle sequence, and ``my_element_offset`` is this rank's starting
    index within it (the block-wise write offset).
    """
    local = particles.sort_by_id()
    if comm.size == 1:
        return local, 0, [len(local)]

    # Draw evenly spaced samples from the locally sorted ids.
    n = len(local)
    k = min(OVERSAMPLE, n)
    if k > 0:
        picks = np.linspace(0, n - 1, k).astype(np.int64)
        samples = local.ids[picks]
    else:
        samples = np.empty(0, dtype=np.int64)
    gathered = coll.gather(comm, samples, root=0)
    if comm.rank == 0:
        pool = np.sort(np.concatenate(gathered)) if gathered else np.empty(0)
        if len(pool) >= comm.size - 1:
            idx = np.linspace(0, len(pool) - 1, comm.size + 1)[1:-1]
            splitters = pool[idx.astype(np.int64)]
        else:
            splitters = np.full(comm.size - 1, np.iinfo(np.int64).max)
    else:
        splitters = None
    splitters = coll.bcast(comm, splitters, root=0)

    # Bucket my particles: bucket b gets ids in (splitters[b-1], splitters[b]].
    from ..mpi import batch as _batch

    if _batch.batch_enabled(comm):
        # Scale mode: one rendezvous instead of a P x P bucket matrix
        # (byte-identical result, see batch.particle_exchange).
        mine = _batch.particle_exchange(comm, local, splitters).sort_by_id()
    else:
        buckets = np.searchsorted(splitters, local.ids, side="left")
        outgoing = [local.select(buckets == b) for b in range(comm.size)]
        incoming = coll.alltoall(comm, outgoing)
        mine = ParticleSet.concat(incoming).sort_by_id()

    counts = coll.allgather(comm, len(mine))
    offset = sum(counts[: comm.rank])
    return mine, offset, counts
