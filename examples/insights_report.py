#!/usr/bin/env python
"""Trace a dump, diagnose it, let the auto-tuner fix it.

Walks the full insights loop on the paper's Figure-6 platform (SGI
Origin2000 / XFS) and workload (AMR32):

1. run the serial HDF4 dump traced and print the Drishti-style diagnosis
   (small-request dominance, file-per-grid, writes serialized through P0);
2. hand the same baseline to the :class:`~repro.insights.AutoTuner`, which
   applies the recommended strategy/hints and re-runs until no HIGH
   finding remains;
3. diagnose the tuned run to show the clean report.

Run:  python examples/insights_report.py
"""

from repro.bench import build_workload, run_traced_experiment
from repro.insights import AutoTuner, Severity, diagnose, format_report
from repro.insights.autotune import stripe_size_of
from repro.iostack import registry
from repro.mpiio import Hints
from repro.topology import origin2000

NPROCS = 8
PROBLEM = "AMR32"


def diagnose_dump(strategy, hints=None, title=""):
    machine = origin2000(nprocs=NPROCS)
    _result, trace = run_traced_experiment(
        machine, strategy, build_workload(PROBLEM),
        nprocs=NPROCS, do_read=False,
    )
    diagnosis = diagnose(
        trace,
        nprocs=NPROCS,
        nnodes=machine.nnodes,
        stripe_size=stripe_size_of(machine),
        hints=hints,
        strategy=strategy.name,
    )
    print(format_report(diagnosis, title=title, show_ok=False))
    return diagnosis


def main() -> None:
    print("=== 1. diagnose the original serial dump ===")
    diagnose_dump(
        registry.create("hdf4"),
        title=f"hdf4 dump of {PROBLEM} on Origin2000, P={NPROCS}",
    )

    print()
    print("=== 2. closed-loop auto-tune from the same baseline ===")
    tuner = AutoTuner(
        lambda n: origin2000(nprocs=n),
        problem=PROBLEM,
        nprocs=NPROCS,
        strategy="hdf4",
    )
    report = tuner.tune()
    print(report.explain())

    print()
    print("=== 3. diagnose the tuned run ===")
    best = report.best
    tuned = Hints(**{
        k: v for k, v in best.hints.items()
        if getattr(Hints(), k, None) != v and k != "cb_nodes"
    })
    diagnosis = diagnose_dump(
        registry.create("mpi-io", hints=tuned),
        hints=tuned,
        title=f"tuned {best.strategy} dump ({PROBLEM})",
    )
    print(f"\nHIGH findings after tuning: {diagnosis.count(Severity.HIGH)}")


if __name__ == "__main__":
    main()
