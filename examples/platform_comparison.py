#!/usr/bin/env python
"""Cross-platform strategy comparison: the paper's evaluation in miniature.

Runs the HDF4 baseline and the optimised MPI-IO strategy on all four
platform models (Origin2000/XFS, IBM SP/GPFS, Chiba City/PVFS, Chiba City
local disks) and prints one table per platform, showing where the
optimisation wins and where the file system fights back.

Run:  python examples/platform_comparison.py           (AMR32, fast)
      python examples/platform_comparison.py AMR64     (paper size, slower)
"""

import sys

from repro.bench import (
    build_initial_workload,
    build_workload,
    run_checkpoint_experiment,
    workload_summary,
)
from repro.core import format_table
from repro.iostack import registry
from repro.topology import chiba_city, chiba_city_local, ibm_sp2, origin2000

PLATFORMS = [
    ("SGI Origin2000 / XFS", lambda: origin2000(nprocs=16), 16),
    ("IBM SP / GPFS", lambda: ibm_sp2(nprocs=32), 32),
    ("Chiba City / PVFS (fast Ethernet)", lambda: chiba_city(8), 8),
    ("Chiba City / node-local disks", lambda: chiba_city_local(8), 8),
]


def main() -> None:
    problem = sys.argv[1] if len(sys.argv) > 1 else "AMR32"
    hierarchy = build_workload(problem)
    initial = build_initial_workload(problem)
    print(f"workload {problem}: {workload_summary(hierarchy)}")

    for title, factory, nprocs in PLATFORMS:
        rows = []
        for strategy in (registry.create("hdf4"), registry.create("mpi-io")):
            result = run_checkpoint_experiment(
                factory(), strategy, hierarchy,
                nprocs=nprocs, read_hierarchy=initial,
            )
            rows.append(
                [strategy.name, f"{result.write_time:.3f}",
                 f"{result.read_time:.3f}"]
            )
        faster = (
            "MPI-IO faster"
            if float(rows[1][1]) < float(rows[0][1])
            else "HDF4 faster (file-system mismatch)"
        )
        print()
        print(f"{title} (P={nprocs}) -- write: {faster}")
        print(format_table(["strategy", "write [s]", "read [s]"], rows))


if __name__ == "__main__":
    main()
