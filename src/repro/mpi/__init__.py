"""Message-passing library (MPI-like) over the simulation engine.

The API follows mpi4py's lowercase, pickle-friendly methods plus standalone
collective functions.  Use :func:`run_spmd` to execute an SPMD function::

    from repro.mpi import run_spmd, collectives as coll

    def program(comm):
        data = comm.rank * 10
        return coll.allreduce(comm, data)

    result = run_spmd(machine, program)
"""

from . import collectives, datatypes
from .collectives import (
    SUM,
    allgather,
    allreduce,
    alltoall,
    alltoallv,
    barrier,
    bcast,
    exscan,
    gather,
    gatherv,
    reduce,
    scatter,
    scatterv,
)
from .comm import Comm, Message, MpiWorld, payload_nbytes
from .datatypes import BYTE, FLOAT64, Datatype, Named, Subarray, merge_segments
from .request import Request, irecv, isend, waitall
from .runner import SpmdResult, run_spmd

__all__ = [
    "Comm",
    "Message",
    "MpiWorld",
    "payload_nbytes",
    "run_spmd",
    "SpmdResult",
    "Request",
    "isend",
    "irecv",
    "waitall",
    "collectives",
    "datatypes",
    "barrier",
    "bcast",
    "gather",
    "gatherv",
    "scatter",
    "scatterv",
    "allgather",
    "alltoall",
    "alltoallv",
    "reduce",
    "allreduce",
    "exscan",
    "SUM",
    "Datatype",
    "Named",
    "Subarray",
    "merge_segments",
    "BYTE",
    "FLOAT64",
]
