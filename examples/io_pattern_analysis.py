#!/usr/bin/env python
"""The paper's analysis workflow: trace, classify, optimise.

1. Run a checkpoint dump with the file system instrumented and print a
   Pablo-style I/O activity report (request sizes, sequentiality, skew).
2. Register the application's array metadata -- rank, dimensions, access
   pattern, access order -- and classify each array's pattern from its
   per-rank access descriptors (regular (Block,Block,Block) baryon fields
   vs irregular position-partitioned particle arrays).
3. Feed the metadata to the optimizer and print the resulting I/O plan:
   the strategy the paper's Section 3.2 implements by hand.

Run:  python examples/io_pattern_analysis.py
"""

import numpy as np

from repro.amr import BlockPartition
from repro.bench import build_workload
from repro.core import (
    AccessDescriptor,
    MetadataRegistry,
    Optimizer,
    classify_accesses,
    format_trace_report,
    trace_filesystem,
)
from repro.enzo import RankState
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.topology import origin2000

NPROCS = 8


def trace_a_dump(hierarchy):
    machine = origin2000(nprocs=NPROCS)
    trace = trace_filesystem(machine.fs)

    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        registry.create("mpi-io").write_checkpoint(comm, state, "dump")

    run_spmd(machine, program, nprocs=NPROCS)
    print(format_trace_report(trace, title="MPI-IO checkpoint dump trace"))
    print()


def classify_enzo_patterns(hierarchy):
    """Reproduce the paper's Figure 4 classification from observed accesses."""
    root = hierarchy.root
    part = BlockPartition(root.dims, NPROCS)

    baryon_descriptors = []
    for rank in range(NPROCS):
        starts, sizes = part.block_of(rank)
        baryon_descriptors.append(
            AccessDescriptor(global_shape=root.dims, starts=starts,
                             subsizes=sizes)
        )
    baryon_class = classify_accesses(baryon_descriptors)

    cells = root.cell_of(root.particles.positions)
    owners = part.owner_of_cells(cells)
    particle_descriptors = [
        AccessDescriptor(
            global_shape=(len(root.particles),),
            indices=tuple(np.flatnonzero(owners == r)[:64].tolist()),
        )
        for r in range(NPROCS)
    ]
    particle_class = classify_accesses(particle_descriptors)

    print(f"baryon fields   -> {baryon_class.value} "
          f"(Block, Block, Block over {part.pgrid} processors)")
    print(f"particle arrays -> {particle_class.value} "
          f"(partitioned by particle position)")
    print()
    return baryon_class, particle_class


def plan_from_metadata(hierarchy, baryon_class, particle_class):
    registry = MetadataRegistry()
    root = hierarchy.root
    for name in root.fields.names:
        registry.register("top", name, root.dims, np.float64, baryon_class)
    from repro.amr.particles import PARTICLE_ARRAYS
    from repro.enzo import array_dtype

    for name in PARTICLE_ARRAYS:
        # Particle velocity_* shares names with the baryon velocity fields;
        # namespace them as the I/O layers do.
        registry.register(
            "top", f"particle/{name}", (len(root.particles),),
            array_dtype(name), particle_class,
        )
    plan = Optimizer(stripe_size=1 << 20).plan(registry)
    print(plan.explain())


def main() -> None:
    hierarchy = build_workload("AMR32")
    trace_a_dump(hierarchy)
    baryon_class, particle_class = classify_enzo_patterns(hierarchy)
    plan_from_metadata(hierarchy, baryon_class, particle_class)


if __name__ == "__main__":
    main()
