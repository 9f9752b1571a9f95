#!/usr/bin/env python
"""Full ENZO simulation flow: initialise, evolve, dump, restart.

Drives the cosmology application end-to-end on a simulated Origin2000:
initial conditions, several evolution cycles with mesh refinement and a
checkpoint dump per cycle, then a restart read of the final dump whose
reconstructed state is verified against the live hierarchy.

Run:  python examples/enzo_simulation.py
"""

from repro.core import format_table
from repro.enzo import (
    EnzoConfig,
    EnzoSimulation,
    RankState,
    hierarchies_equivalent,
)
from repro.iostack import registry
from repro.mpi import run_spmd
from repro.topology import origin2000


def main() -> None:
    config = EnzoConfig(
        problem="AMR32",
        ncycles=3,
        dump_every=1,
        max_level=2,
        refine_threshold=2.2,
    )
    machine = origin2000(nprocs=8)
    hierarchy = EnzoSimulation.build_initial_hierarchy(config)
    print("initial hierarchy:")
    print(hierarchy.describe())
    print()

    sim = EnzoSimulation(config=config, strategy=registry.create("mpi-io"),
                         hierarchy=hierarchy)

    def program(comm):
        summary = sim.run(comm, base="run")
        return summary

    results = run_spmd(machine, program, nprocs=8)
    summary = results.results[0]
    print(f"evolved {summary['cycles']} cycles -> {summary['grids']} grids "
          f"(max level {summary['max_level']})")
    print()
    rows = [
        [i + 1, f"{s.elapsed:.3f}", f"{s.bytes_moved / 2**20:.1f}"]
        for i, s in enumerate(summary["write_stats"])
    ]
    print("per-cycle checkpoint dumps (rank-0 view, simulated):")
    print(format_table(["cycle", "dump time [s]", "MB (this rank)"], rows))
    print()

    # Restart from the last dump and verify the state round-trips.
    last = summary["dumps"][-1]

    def restart_program(comm):
        state = sim.restart(comm, last)
        return state

    restart = run_spmd(machine, restart_program, nprocs=8)
    rebuilt = RankState.collect(restart.results)
    ok = hierarchies_equivalent(rebuilt, sim.hierarchy)
    print(f"restart read of {last!r}: "
          f"{'bit-exact state recovered' if ok else 'MISMATCH!'}")
    assert ok


if __name__ == "__main__":
    main()
