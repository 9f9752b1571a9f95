#!/usr/bin/env python3
"""perfbench's own checks: ``python3 perfbench/selftest.py [--smoke]``.

``--smoke`` (one small cell per workload, under 30 s) checks that

* ``BENCHMARK.json`` has the contract's shape and names the workloads
  that ``workloads.py`` defines;
* two runs of a cell give bit-identical simulated numbers and exact counts;
* the tracer changes no record, restores every attribute it patched (a cell
  run afterwards reproduces its committed golden ``trace_digest``), its
  per-layer host self-times sum to the traced wall within 5 % and its
  per-layer simulated self-times sum to each job's makespan within 1e-9;
* a traced run yields every ``per_layer`` name, all of them numbers.

Without ``--smoke`` it also drives ``run.py`` once per workload and trace
mode and checks the last line it prints against the contract.  Not
collected by the tier-1 suite (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import manifest  # noqa: E402

#: One small cell per workload for the smoke checks.
SMOKE = {
    "collective-ranks": "fig10:mpi-io:16",
    "funnel-hdf4": "fig6:hdf4:2",
    "driver-async": "overlap:origin2000:mpi-io-async:P8",
    "scda-p2": "scda:mpi-io-scda:2",
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_manifest() -> None:
    import workloads as W

    m = manifest.MANIFEST
    expect(set(m) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    expect(m["paths"] == ["perfbench"]
           and m["command"] == ["python3", "perfbench/run.py"],
           "command and paths point at perfbench/")
    expect(set(manifest.WORKLOADS) == set(W.WORKLOADS),
           "workloads match workloads.py")
    names = [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    expect(len(names) == len(set(names)), "every metric name is used once")
    bounds = manifest.BOUNDS
    expect("setup_s" in bounds
           and all(b <= bounds["setup_s"] for b in bounds.values()),
           "setup_s is there and carries the largest bound")


def check_cell(W, name: str, cell_id: str) -> None:
    from tracer import Tracer

    print(f"{name}: {cell_id}")
    workload = W.WORKLOADS[name]
    spec = next(c for c in workload.cells if c.id == cell_id)
    inputs = W.Inputs(0)
    first = W.run_one(spec, inputs)
    expect(W.run_one(spec, inputs) == first,
           "two runs: bit-identical sim numbers and counts")
    tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        with tracer.cell_span(cell_id):
            traced = W.run_one(spec, inputs)
    finally:
        wall = time.perf_counter() - t0
        tracer.uninstall()
    expect(traced == first, "the tracer changes no record")
    expect(tracer.restored(), "every patched attribute is restored")
    charged = sum(tracer.host.values())
    expect(abs(charged - wall) <= 0.05 * wall,
           f"layer host self-times sum to the traced wall ({charged:.3f} "
           f"vs {wall:.3f} s)")
    expect(tracer.sim_residual < 1e-9,
           f"layer sim self-times sum to each job's makespan "
           f"(residual {tracer.sim_residual:.1e})")
    expect(tracer.count["sim.context_switches"] > 0 and len(tracer.spans) > 0,
           "spans and engine counters were recorded")
    after = W.run_one(spec, inputs)
    expect(after == first, "a run after tracing reproduces the record")
    checks = W.check_records(workload, {cell_id: after}, 0)
    golden = [c for c in checks if c["check"].startswith("baseline:")]
    if golden:
        expect(all(c["ok"] for c in golden),
               "and its committed golden trace_digest")


def check_traced_names(W, allowed: list[int]) -> None:
    import worker

    print("scda-p2: traced run names")
    workload = W.WORKLOADS["scda-p2"]
    inputs = W.Inputs(0)
    W.prepare(workload, inputs)
    run = worker.Run()
    wall = run.run_pass(W, workload, inputs)
    run.passes.append(wall)
    timing = {"import_s": 0.0, "build_s": 0.0, "warmup_s": 0.0}
    layers = worker.traced_metrics(W, workload, inputs, run, timing, allowed)
    layers.update({"host.cpu_s": 0.0, "host.calibration_s": worker.calibration()})
    names = [m["name"] for m in manifest.PER_LAYER]
    expect(sorted(layers) == sorted(names),
           "a traced run reports exactly the per_layer names")
    expect(all(isinstance(v, (int, float)) for v in layers.values()),
           "every per_layer value is a number")
    expect(not run.failures, f"no check failed ({run.failures[:1]})")


def check_cli() -> None:
    """Drive the real command the way the driver does."""
    m = manifest.MANIFEST
    for workload in manifest.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            cmd = m["command"] + [
                "--workload", workload, "--seed", "7", "--seconds", "3",
                "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            print(f"{' '.join(cmd)} -> exit {proc.returncode}")
            expect(proc.returncode == 0, "exit code 0")
            try:
                out = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, "last line of stdout is one JSON object")
                continue
            expect(set(out) == {"correct", "attempted", "failed", "metrics"},
                   "result has exactly the contract's keys")
            expect(out["correct"] is True and out["failed"] == 0
                   and out["attempted"] >= 1, "correct, nothing failed")
            want = {x["name"]: x["unit"] for x in m[group]}
            got = {n: x["unit"] for n, x in out["metrics"].items()}
            expect(got == want, f"metrics are exactly the {group} names and units")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    import workloads as W

    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})  # hand-offs are 2-14x slower unpinned
    print("BENCHMARK.json")
    check_manifest()
    for name, cell_id in SMOKE.items():
        check_cell(W, name, cell_id)
    check_traced_names(W, allowed)
    if "--smoke" not in argv:
        os.sched_setaffinity(0, set(allowed))  # workers pin themselves
        check_cli()
    print(f"\nselftest: {'PASS' if not failures else 'FAIL'} "
          f"({len(failures)} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
