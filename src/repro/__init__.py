"""repro: reproduction of "I/O Analysis and Optimization for an AMR
Cosmology Application" (Li, Liao, Choudhary, Taylor -- CLUSTER 2002).

A complete simulated parallel-I/O stack -- discrete-event SPMD engine,
MPI + MPI-IO (two-phase collective I/O, data sieving, file views), HDF4 and
parallel-HDF5 libraries, striped parallel file systems -- plus an ENZO-like
AMR cosmology application and the paper's metadata-driven I/O optimizer.

Quick start::

    from repro.topology import origin2000
    from repro.bench import build_workload, run_checkpoint_experiment
    from repro.iostack import registry

    hierarchy = build_workload("AMR32")
    result = run_checkpoint_experiment(
        origin2000(nprocs=8), registry.create("mpi-io"), hierarchy
    )
    print(result.write_time, result.read_time)
"""

from . import (
    amr,
    bench,
    core,
    enzo,
    hdf4,
    hdf5,
    mpi,
    mpiio,
    pfs,
    resilience,
    sim,
    topology,
)

__version__ = "1.0.0"

__all__ = [
    "sim",
    "topology",
    "pfs",
    "mpi",
    "mpiio",
    "hdf4",
    "hdf5",
    "amr",
    "enzo",
    "core",
    "bench",
    "resilience",
    "__version__",
]
