"""Transports: which ranks move which bytes, and how they coordinate.

The paper's middle layer.  Three movement disciplines:

* :class:`FunnelTransport` -- the original ENZO path: everything funnels
  through processor 0 for the top grid (gather + combine on write, read +
  scatter on restart); subgrid files go to their owners (Section 2.2);
* :class:`CollectiveTransport` -- the optimised path: collective two-phase
  access for the regular baryon fields, parallel sample sort + independent
  block-wise access for the irregular particle arrays, owner-writes for
  subgrids (Sections 3.2/3.3);
* :class:`IndependentTransport` -- the collective plan issued through
  independent requests only (the paper's Figure 5 comparison point).

A transport drives a format *session* (see :mod:`repro.iostack.formats`)
and never touches the file directly; ``requires`` names the layout kind it
can address.  Phase timings land in the strategy's
:class:`~repro.enzo.io_base.IOStats` through ``ctx.timed``.
"""

from __future__ import annotations

import numpy as np

from ..amr.fields import BARYON_FIELDS
from ..amr.grid import Grid
from ..amr.particles import PARTICLE_ARRAYS, ParticleSet
from ..amr.partition import BlockPartition
from ..enzo.layout import TOP
from ..enzo.sort import parallel_sort_by_id
from ..enzo.state import PartitionedState, RankState, make_owner_map
from ..mpi import collectives as coll
from .layouts import particle_block_range

__all__ = [
    "CollectiveTransport",
    "FunnelTransport",
    "IndependentTransport",
    "redistribute_grid_particles",
    "redistribute_particles",
]


# -- particle redistribution -------------------------------------------------


def redistribute_particles(
    comm, block: ParticleSet, meta, partition: BlockPartition
) -> ParticleSet:
    """Send each particle to the rank whose sub-domain contains it."""
    return redistribute_grid_particles(comm, block, meta, meta.root_id, partition)


def redistribute_grid_particles(
    comm, block: ParticleSet, meta, gid, part: BlockPartition
) -> ParticleSet:
    """Route particles to the rank whose sub-block of grid ``gid``
    contains them."""
    if len(block):
        cells = meta[gid].shell().cell_of(block.positions)
        owners = part.owner_of_cells(cells)
    else:
        owners = np.empty(0, dtype=np.int64)
    outgoing = [
        block.select(owners == r) if r < part.nprocs else None
        for r in range(comm.size)
    ]
    incoming = coll.alltoall(comm, outgoing)
    return ParticleSet.concat(
        [p for p in incoming if p is not None]
    ).sort_by_id()


def _read_particles(ctx, session, key, lo=0, hi=None, want=True):
    """Elements ``[lo, hi)`` of every particle array of grid ``key``."""
    arrays = {
        name: session.read_array(key, "particle", name, lo, hi, want)
        for name in PARTICLE_ARRAYS
    }
    if not want:
        return None
    ctx.stats.bytes_moved += sum(a.nbytes for a in arrays.values())
    return ParticleSet.from_arrays(arrays)


# -- rank-0 funnel (the original sequential path) ----------------------------


def _read_pieces(ctx, session, path: str, grid, part: BlockPartition) -> list:
    """Processor 0 reads the file at ``path`` of the grid whose metadata is
    ``grid`` and partitions it: each array is cut into the ranks' pieces as
    it is read, so one array is in flight, not the grid.  Charged as the
    whole grid read and copied."""
    pieces = part.split(grid.shell(), session.read_arrays(path))
    ctx.stats.bytes_moved += grid.data_nbytes
    ctx.comm.compute(ctx.comm.machine.memcpy_time(grid.data_nbytes))
    return pieces


class FunnelTransport:
    """Everything through processor 0; per-grid files to their owners.

    The restart read is the original code's new-simulation path: P0 reads
    every subgrid file and sends each to its round-robin owner.
    """

    name = "funnel"
    requires = "file-per-grid"

    def write(self, ctx, session, layout, state) -> None:
        comm = ctx.comm
        # Phase 1: gather the top-grid pieces to processor 0 and combine.
        with ctx.timed("top_gather"):
            pieces = coll.gather(comm, state.top_piece, root=0)
            if comm.rank == 0:
                combined = state.partition.reassemble(
                    state.meta.root.shell(), pieces
                )
                comm.compute(comm.machine.memcpy_time(combined.data_nbytes))

        # Phase 2: processor 0 writes the combined top grid, sequentially.
        with ctx.timed("top_write"):
            if comm.rank == 0:
                ctx.stats.bytes_moved += session.write_grid(
                    layout.top_grid_path(ctx.base), combined
                )

        # Phase 3: subgrids -- each owner writes its own per-grid files.
        with ctx.timed("subgrids"):
            for gid in sorted(state.subgrids):
                ctx.stats.bytes_moved += session.write_grid(
                    layout.subgrid_path(ctx.base, gid), state.subgrids[gid]
                )
            coll.barrier(comm)

    def read(self, ctx, session, layout, meta):
        comm = ctx.comm
        partition = BlockPartition(meta.root.dims, comm.size)

        # Phase 1+2: processor 0 reads the whole top grid, partitions it
        # and scatters the pieces.
        with ctx.timed("top_read_scatter"):
            if comm.rank == 0:
                pieces = _read_pieces(
                    ctx, session, layout.top_grid_path(ctx.base), meta.root,
                    partition,
                )
            else:
                pieces = None
            top_piece = coll.scatter(comm, pieces, root=0)

        # Phase 3: subgrids -- P0 reads every subgrid file sequentially and
        # sends each to its assigned processor.
        with ctx.timed("subgrids"):
            owner = make_owner_map(meta, comm.size, policy="round_robin")
            subgrids: dict[int, Grid] = {}
            for gid in meta.subgrid_ids():
                shell = None
                if comm.rank == 0:
                    shell = meta[gid].shell()
                    session.read_grid(layout.subgrid_path(ctx.base, gid), shell)
                    ctx.stats.bytes_moved += shell.data_nbytes
                dest = owner[gid]
                if dest == 0:
                    if comm.rank == 0:
                        subgrids[gid] = shell
                elif comm.rank == 0:
                    comm.send(shell, dest, tag=17)
                elif comm.rank == dest:
                    subgrids[gid] = comm.recv(0, tag=17)
            coll.barrier(comm)

        return RankState(
            rank=comm.rank,
            nprocs=comm.size,
            meta=meta,
            partition=partition,
            top_piece=top_piece,
            subgrids=subgrids,
            owner=owner,
        )

    def read_initial(self, ctx, session, layout, meta):
        """Original new-simulation read: P0 reads every grid sequentially,
        partitions it (Block, Block, Block) and distributes the pieces."""
        comm = ctx.comm
        state = PartitionedState(rank=comm.rank, nprocs=comm.size, meta=meta)
        for g in meta.grids():
            gid = g.id
            part = BlockPartition.for_grid(g.dims, comm.size)
            state.partitions[gid] = part
            pieces = None
            if comm.rank == 0:
                if gid == meta.root_id:
                    path = layout.top_grid_path(ctx.base)
                else:
                    path = layout.subgrid_path(ctx.base, gid)
                pieces = _read_pieces(ctx, session, path, g, part)
                pieces += [None] * (comm.size - part.nprocs)
            state.pieces[gid] = coll.scatter(comm, pieces, root=0)
        return state


# -- collective two-phase / independent block-wise ---------------------------


class CollectiveTransport:
    """The paper's optimised movement plan over one shared file."""

    name = "collective"
    requires = "shared-file"
    #: issue top-grid field writes collectively (two-phase); the
    #: :class:`IndependentTransport` subclass turns this off.
    collective_fields = True

    def write(self, ctx, session, layout, state) -> None:
        comm = ctx.comm
        # Phase 1: top-grid baryon fields through subarray/hyperslab views.
        with ctx.timed("top_fields"):
            block = state.partition.block_of(comm.rank)
            for name, arr in state.top_piece.fields.items():
                op = session.begin_block_write(TOP, name, arr, block)
                if self.collective_fields:
                    ctx.strategy._collective_or_degraded(
                        comm, ctx.base, op.collective, op.independent,
                        nbytes=arr.nbytes,
                    )
                else:
                    op.independent()
                op.finish()
                ctx.stats.bytes_moved += arr.nbytes

        # Phase 2: top-grid particles -- parallel sort + block-wise writes.
        with ctx.timed("top_particles"):
            session.reset_view()
            sorted_parts, elem_offset, _counts = parallel_sort_by_id(
                comm, state.top_piece.particles
            )
            for name in PARTICLE_ARRAYS:
                ctx.stats.bytes_moved += session.write_array(
                    TOP, "particle", name, sorted_parts.array(name), elem_offset
                )

        # Phase 3: subgrids, each written whole by its owner.  When the
        # format's per-array metadata is collective (HDF5 dataset creates),
        # every rank walks every grid, without data for those it does not own.
        with ctx.timed("subgrids"):
            gids = (
                state.meta.subgrid_ids() if session.collective_metadata
                else sorted(state.subgrids)
            )
            for gid in gids:
                mine = state.subgrids.get(gid)
                for name in BARYON_FIELDS:
                    arr = mine.fields[name] if mine is not None else None
                    ctx.stats.bytes_moved += session.write_array(
                        gid, "field", name, arr
                    )
                parts = mine.particles.sort_by_id() if mine is not None else None
                for name in PARTICLE_ARRAYS:
                    arr = parts.array(name) if mine is not None else None
                    ctx.stats.bytes_moved += session.write_array(
                        gid, "particle", name, arr
                    )

    def read(self, ctx, session, layout, meta):
        comm = ctx.comm
        partition = BlockPartition(meta.root.dims, comm.size)

        # Phase 1: top-grid fields, collective subarray/hyperslab reads.
        with ctx.timed("top_fields"):
            block = partition.block_of(comm.rank)
            top_piece = partition.piece_shell(meta.root.shell(), comm.rank)
            for name in BARYON_FIELDS:
                got = session.read_block(TOP, name, block)
                top_piece.fields[name] = got
                ctx.stats.bytes_moved += got.nbytes

        # Phase 2: particles -- block-wise contiguous reads, then
        # redistribution by position against the grid edges.
        with ctx.timed("top_particles"):
            session.reset_view()
            lo, hi = particle_block_range(
                meta.root.nparticles, comm.rank, comm.size
            )
            top_piece.particles = redistribute_particles(
                comm, _read_particles(ctx, session, TOP, lo, hi), meta, partition
            )

        # Phase 3: subgrids, round-robin owners read whole arrays (every
        # rank walks every grid when the format's metadata is collective).
        with ctx.timed("subgrids"):
            owner = make_owner_map(meta, comm.size, policy="round_robin")
            subgrids: dict[int, Grid] = {}
            for gid in meta.subgrid_ids():
                mine = owner[gid] == comm.rank
                if not (mine or session.collective_metadata):
                    continue
                shell = meta[gid].shell() if mine else None
                for name in BARYON_FIELDS:
                    got = session.read_array(gid, "field", name, want=mine)
                    if mine:
                        shell.fields[name] = got
                        ctx.stats.bytes_moved += got.nbytes
                parts = _read_particles(ctx, session, gid, want=mine)
                if mine:
                    shell.particles = parts
                    subgrids[gid] = shell

        return RankState(
            rank=comm.rank,
            nprocs=comm.size,
            meta=meta,
            partition=partition,
            top_piece=top_piece,
            subgrids=subgrids,
            owner=owner,
        )

    def read_initial(self, ctx, session, layout, meta):
        """Parallel new-simulation read: every grid read collectively."""
        comm = ctx.comm
        state = PartitionedState(rank=comm.rank, nprocs=comm.size, meta=meta)
        for g in meta.grids():
            gid = g.id
            key = TOP if gid == meta.root_id else gid
            part = BlockPartition.for_grid(g.dims, comm.size)
            state.partitions[gid] = part
            active = comm.rank < part.nprocs
            piece = part.piece_shell(g.shell(), comm.rank) if active else None
            # Baryon fields: collective reads (all ranks call).
            block = part.block_of(comm.rank) if active else None
            for name in BARYON_FIELDS:
                got = session.read_block(key, name, block)
                if active:
                    piece.fields[name] = got
                    ctx.stats.bytes_moved += got.nbytes
            session.reset_view()
            # Particle arrays: block-wise reads + redistribution by position.
            lo, hi = (
                particle_block_range(g.nparticles, comm.rank, part.nprocs)
                if active else (0, 0)
            )
            mine = redistribute_grid_particles(
                comm, _read_particles(ctx, session, key, lo, hi), meta, gid, part
            )
            if active:
                piece.particles = mine
            state.pieces[gid] = piece
        return state


class IndependentTransport(CollectiveTransport):
    """The collective plan issued as independent requests (Figure 5)."""

    name = "independent"
    collective_fields = False
