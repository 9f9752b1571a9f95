#!/usr/bin/env python3
"""perfbench: the repo's host/sim benchmark (see perfbench/README.md).

    python3 perfbench/run.py                       # all four workloads
    python3 perfbench/run.py --workload scda-p2 --seed 7 --trace 1
    python3 perfbench/run.py --seeds 1-10 --json perfbench/results/set.json
    python3 perfbench/run.py --check               # correctness pass only

Every workload runs in fresh, single-CPU-pinned interpreters
(``worker.py``); this process only starts them, takes medians, prints every
metric by name with its unit, and ends with one JSON object on the last
line of standard output.  Exit code 0 means every run was correct.

Two clocks: *host* metrics time the simulator on this box, *sim* metrics
are virtual seconds of the modelled machine.  The model is unvalidated
against hardware (the repo holds no reference measurements), so no error
figure is given; the paper/scale trends are correctness checks instead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from manifest import END_TO_END, EXACT, PER_LAYER, UNITS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh interpreters per untraced run: ``setup_s`` is their median.
WORKERS = 3
#: Hazard 2: rank threads churn the allocator; one arena, no trimming and
#: no mmap below 32 MiB keep a pass's page-fault count flat (measured:
#: funnel-hdf4 passes wander 3.7-15 s without, +-10 % with).
WORKER_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, **opts) -> dict:
    """Start one worker, wait for it, return the JSON it printed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--t0", repr(time.monotonic())]
    for key, value in opts.items():
        if value is not None:
            cmd += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.run(cmd, env={**os.environ, **WORKER_ENV},
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            check_only: bool = False, spans: str | None = None) -> dict:
    """One run of one workload: the contract's result plus its evidence."""
    if check_only:
        outs = [run_worker(workload, seed, seconds=0, warmups=0, check=1)]
    elif trace:
        outs = [run_worker(workload, seed, seconds=seconds / 2, check=1,
                           trace=1, spans=spans)]
    else:
        outs = [
            run_worker(workload, seed, seconds=seconds / WORKERS,
                       check=int(i == WORKERS - 1))
            for i in range(WORKERS)
        ]
    last = outs[-1]
    attempted = sum(o["attempted"] for o in outs) + 1
    failures = [f for o in outs for f in o["failures"]]
    if any(o["records"] != last["records"] for o in outs):
        failures.append("deterministic-processes: two interpreters "
                        "disagree on a simulated number or an exact count")
    if trace:
        metrics = last.get("layers", {})
        names = [m["name"] for m in PER_LAYER]
    elif check_only:  # nothing was timed
        metrics, names = last["sums"], list(EXACT)
    else:
        metrics = {
            # Interference from the shared box only ever adds time, so each
            # interpreter contributes its fastest pass; the median of the
            # three guards against one lucky or unlucky interpreter.
            "host_wall_s": statistics.median(min(o["passes"], default=0.0) for o in outs),
            "host_peak_rss_mb": statistics.median(o["rss_mb"] for o in outs),
            "setup_s": statistics.median(o["setup_s"] for o in outs),
            **last["sums"],
        }
        names = [m["name"] for m in END_TO_END]
    missing = [n for n in names if n not in metrics]
    if missing and not failures:
        failures.append("metrics missing: " + ", ".join(missing))
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]}
                    for n in names if n in metrics},
        "samples": {"passes": [o["passes"] for o in outs],
                    "setup_s": [o["setup_s"] for o in outs],
                    "rss_mb": [o["rss_mb"] for o in outs]},
        "cells": last["records"],
        "checks": last["checks"],
        "failures": failures,
        "stamp": last.get("stamp", {}),
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the correctness verdict."""
    print(f"\n== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}")
    for name, m in result["metrics"].items():
        value = m["value"]
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"  {name:36s} {text:>18s} {m['unit']}")
    passes = [p for worker in result["samples"]["passes"] for p in worker]
    share = result["failed"] / result["attempted"]
    print(f"  {'timed passes':36s} {len(passes):18d} count")
    if passes:
        print(f"  {'median of all timed passes':36s} "
              f"{statistics.median(passes):18.6f} s")
    print(f"  {'failed_share':36s} {share:18.6f} ratio"
          f"  ({result['failed']} of {result['attempted']})")
    ok = sum(1 for c in result["checks"] if c["ok"])
    print(f"  checks: {ok}/{len(result['checks'])} hold; sim model unvalidated "
          "against hardware (trends only)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 = registered inputs, comparable with the "
                         "committed BENCH_*.json baselines")
    ap.add_argument("--seeds", type=parse_seeds, default=None, metavar="A-B",
                    help="run every seed in the range (a result set)")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="seconds of timed passes per run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: traced run, per-layer metrics")
    ap.add_argument("--check", action="store_true",
                    help="correctness pass only, nothing timed")
    ap.add_argument("--json", default=None, metavar="OUT",
                    help="write every run of this invocation to OUT")
    ap.add_argument("--spans", default=None, metavar="OUT",
                    help="with --trace: write the span list to OUT")
    args = ap.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    seeds = args.seeds if args.seeds is not None else [args.seed]
    runs = []
    for name in names:
        for seed in seeds:
            try:
                result = measure(name, seed, args.seconds, args.trace,
                                 args.check, args.spans)
            except (WorkerFailed, subprocess.TimeoutExpired) as err:
                print(f"perfbench: {name} seed {seed}: {err}", file=sys.stderr)
                return 2
            report(result)
            runs.append(result)
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"runs": runs}, f, indent=1)
            f.write("\n")
    last = runs[-1]
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": last["metrics"],
    }))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
