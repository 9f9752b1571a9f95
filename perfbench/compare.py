#!/usr/bin/env python3
"""Compare two perfbench result sets: ``python3 perfbench/compare.py A.json B.json``.

A result set is what ``run.py --seeds 1-10 --json OUT`` writes.  ``A`` is
the base (the parent commit, or the first of two sets of one commit), ``B``
the candidate.  One row per (workload, end-to-end metric):

* both medians with their quartiles, the ratio ``B/A`` (base: A's median)
  and the metric's bound from ``BENCHMARK.json``;
* a verdict -- ``regressed`` when B's median is worse than A's by more than
  the bound, ``unresolved`` when either side's own spread (inter-quartile
  distance over median) is wider than the bound, ``improved`` when B wins
  at least nine tenths of the seed-matched pairs *and* the medians differ
  by more than A's inter-quartile distance, ``unchanged`` otherwise;
* for the simulated sums, which are exact functions of (commit, seed):
  ``identical`` when every seed both sets ran gives bit-equal records, else
  the cells and fields that differ.

Exit code 1 when any row is ``regressed``, ``unresolved`` or differs.
"""

from __future__ import annotations

import json
import statistics
import sys

from manifest import BOUNDS, END_TO_END, EXACT


def load(path: str) -> dict:
    """``{workload: {seed: run}}`` for the untraced runs of a set."""
    with open(path) as f:
        runs = json.load(f)["runs"]
    out: dict = {}
    for run in runs:
        if not run["trace"]:
            out.setdefault(run["workload"], {})[run["seed"]] = run
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def exact_verdict(a: dict, b: dict) -> str:
    """Seed by seed, cell by cell: the simulated records must be equal."""
    diffs = []
    for seed in sorted(set(a) & set(b)):
        cells_a, cells_b = a[seed]["cells"], b[seed]["cells"]
        for cell in sorted(set(cells_a) | set(cells_b)):
            ra, rb = cells_a.get(cell, {}), cells_b.get(cell, {})
            fields = [k for k in sorted(set(ra) | set(rb)) if ra.get(k) != rb.get(k)]
            if fields:
                diffs.append(f"seed {seed} {cell}: {', '.join(fields)}")
    if not set(a) & set(b):
        return "no common seed"
    return "identical" if not diffs else "differs: " + "; ".join(diffs[:4]) + (
        f" (+{len(diffs) - 4} more)" if len(diffs) > 4 else "")


def timing_verdict(name: str, better: str, va: dict, vb: dict) -> str:
    """``va``/``vb``: ``{seed: value}`` of one metric on one workload."""
    bound = BOUNDS[name]
    med_a, med_b = statistics.median(va.values()), statistics.median(vb.values())
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    # setup_s is gated on its median only: its spread is the box's, not ours.
    if name != "setup_s" and max(spread(list(va.values())),
                                 spread(list(vb.values()))) > bound:
        return "unresolved"
    if worse > bound:
        return "regressed"
    pairs = [(va[s], vb[s]) for s in sorted(set(va) & set(vb))]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    q1, _, q3 = quartiles(list(va.values()))
    if pairs and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "improved"
    return "unchanged"


def fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4f} [{q1:.4f},{q3:.4f}]"


def compare(path_a: str, path_b: str) -> int:
    set_a, set_b = load(path_a), load(path_b)
    bad = 0
    header = (f"{'workload':17s} {'metric':17s} {'A median [q1,q3]':28s} "
              f"{'B median [q1,q3]':28s} {'B/A':>7s} {'bound':>6s}  verdict")
    print(f"A = {path_a}\nB = {path_b}\n{header}\n{'-' * len(header)}")
    for workload in sorted(set(set_a) | set(set_b)):
        a, b = set_a.get(workload), set_b.get(workload)
        if not a or not b:
            print(f"{workload:17s} only in {'A' if a else 'B'}")
            bad += 1
            continue
        for metric in END_TO_END:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va = {s: r["metrics"][name]["value"] for s, r in a.items()}
            vb = {s: r["metrics"][name]["value"] for s, r in b.items()}
            if name in EXACT:
                verdict = exact_verdict(a, b)
                bad += verdict != "identical"
            else:
                verdict = timing_verdict(name, better, va, vb)
                bad += verdict in ("regressed", "unresolved")
            ratio = statistics.median(vb.values()) / statistics.median(va.values())
            print(f"{workload:17s} {name:17s} {fmt(list(va.values())):28s} "
                  f"{fmt(list(vb.values())):28s} {ratio:7.4f} {bound:6.2f}  "
                  f"{verdict}")
        failed = [f"{tag} seed {s}" for tag, runs in (("A", a), ("B", b))
                  for s, r in sorted(runs.items()) if not r["correct"]]
        if failed:
            print(f"{workload:17s} failed runs: {', '.join(failed)}")
            bad += 1
    print(f"\nseeds: A {sorted({s for w in set_a.values() for s in w})}  "
          f"B {sorted({s for w in set_b.values() for s in w})}; "
          "ratios are B/A with A's median as the base")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main())
