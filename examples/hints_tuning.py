#!/usr/bin/env python
"""Tuning MPI-IO hints by hand, and letting the auto-tuner do it for you.

Sweeps the ROMIO hints that matter for the ENZO dump on the Origin2000 --
collective-buffer size, data sieving on/off, application-specific striping
-- then closes the loop the paper leaves as future work: trace a run,
diagnose it, and re-run with the hints the diagnosis recommends
(``repro.insights.AutoTuner``, the engine behind ``repro tune``).

Run:  python examples/hints_tuning.py
"""

from repro.bench import build_workload, run_checkpoint_experiment
from repro.core import format_table
from repro.insights import AutoTuner
from repro.iostack import registry
from repro.mpiio import Hints
from repro.topology import origin2000

NPROCS = 8
PROBLEM = "AMR32"


def timed(hints: Hints):
    machine = origin2000(nprocs=NPROCS)
    result = run_checkpoint_experiment(
        machine,
        registry.create("mpi-io", hints=hints),
        build_workload(PROBLEM),
        nprocs=NPROCS,
        do_read=False,
    )
    return result.write_time


def sweep() -> None:
    rows = []
    for label, hints in [
        ("defaults", Hints()),
        ("cb_buffer 256 KiB", Hints(cb_buffer_size=256 * 1024)),
        ("cb_buffer 16 MiB", Hints(cb_buffer_size=16 << 20)),
        ("no write sieving", Hints(ds_write=False)),
        ("aggregators: all ranks", Hints(cb_nodes=0)),
        ("striping_unit 4 MiB", Hints(striping_unit=4 << 20)),
    ]:
        rows.append([label, f"{timed(hints):.3f}"])
    print(f"MPI-IO dump of {PROBLEM} on Origin2000, {NPROCS} procs:")
    print(format_table(["hints", "write [s]"], rows))


def tuner_loop() -> None:
    """Let the diagnose -> retune -> re-run loop pick the hints instead."""
    tuner = AutoTuner(
        lambda n: origin2000(nprocs=n),
        problem=PROBLEM,
        nprocs=NPROCS,
        strategy="mpi-io",
        max_rounds=2,
    )
    report = tuner.tune()
    print()
    print(report.explain())
    changed = {k: v for k, v in report.best.hints.items()
               if getattr(Hints(), k, None) != v and k != "cb_nodes"}
    print(f"hints the tuner changed from the defaults: {changed}")


if __name__ == "__main__":
    sweep()
    tuner_loop()
