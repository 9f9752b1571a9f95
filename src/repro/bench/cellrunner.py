"""The shared cell-runner layer under every bench gate.

A *cell* is one pure experiment: a picklable spec (which machine, which
strategy, how many processors, ...) that deterministically maps to one
canonical JSON record.  The regress and scale gates reduce to the same
shape -- select cells, run each into a record, evaluate trend assertions
over the records, diff against a committed baseline -- so a gate is
*data* and the machinery exists once:

* :class:`Gate` -- one row per bench family and gate command: how a cell
  runs and what identifies it (``run``/``spec``/``describe``), matrix,
  trends, ``--cell`` grammar, baseline artifact and pinned metrics, report
  nouns, renderers.  The rows live beside their matrices (``GATE`` in each
  family module) and are collected by :func:`gates` (``repro.bench.GATES``);
  the CLI builds its sub-parsers and serves every gate from that table.
  The family name is the *wire format*: the process pool in
  :mod:`repro.bench.executor` ships ``(family_name, cell)`` to a worker,
  which resolves the row by name (:func:`get_family`) and runs the cell
  there.  Adding a sweep is adding a row.
* :func:`run_gate` / :func:`load_baseline` / :func:`save_baseline` /
  :func:`compare` / :func:`format_report` -- the one implementation of
  run, baseline I/O, diff (exact counters, banded metrics, optional golden
  digest, trend violations) and the violation table.
* :func:`evaluate_trend` -- one trend assertion against live records.

Determinism contract: a cell's record is a function of its spec alone --
simulated clocks, seeded workloads and golden digests guarantee that
*where* or *when* a cell runs (serial, process pool, cache replay) cannot
change a single byte of its record.  Everything the executor and the
content-addressed cache do rests on that property, and the test suite
asserts it (parallel == serial byte-for-byte).
"""

from __future__ import annotations

import fnmatch
import importlib
import json
from dataclasses import asdict, dataclass
from typing import Callable

from ..core.report import format_table

__all__ = [
    "Gate",
    "GateReport",
    "compare",
    "describe_machine_problem",
    "evaluate_trend",
    "format_report",
    "gates",
    "get_family",
    "load_baseline",
    "run_gate",
    "save_baseline",
]


# -- the gate table -----------------------------------------------------------


def _component_matcher(part: str):
    """Exact match, or :mod:`fnmatch` when the component has wildcards."""
    if any(ch in part for ch in "*?["):
        return lambda value: fnmatch.fnmatchcase(value, part)
    return lambda value: value == part


def describe_machine_problem(cell) -> str:
    """``Gate.describe`` for cells with ``machine`` and ``problem`` fields."""
    return f"{cell.id} ({cell.machine}, {cell.problem})"


@dataclass(frozen=True)
class Gate:
    """One bench gate as data: what to run, what to pin, how to report.

    Every gate diffs its run against its committed ``baseline`` artifact
    (:func:`compare`).
    """

    #: the family name -- the key in ``repro.bench.GATES``, the CLI command
    #: after ``repro``, and what a worker resolves the row by.
    family: str
    help: str
    #: Cells are frozen dataclasses with a stable string ``id`` (the record
    #: key in payloads and reports).
    matrix: tuple
    #: (cell, extra) -> canonical record dict.  Must be a *pure* function of
    #: its arguments: it builds its own machine and file system from presets.
    #: ``extra`` carries per-cell overrides (the regress family's
    #: ``--perturb`` hints) and is part of the cache key via ``spec``.
    run: Callable
    #: Committed baseline artifact to diff against (relative to the CWD).
    baseline: str
    #: ``--cell`` grammar (the metavar) and the three cell attributes its
    #: ``:``-separated components match.
    cell_grammar: str
    cell_keys: tuple
    #: (cell, extra) -> JSON-serializable canonical spec (cache identity).
    spec: Callable = lambda cell, extra: asdict(cell)
    #: cell -> one-line human description for progress output.
    describe: Callable = lambda cell: cell.id
    trends: tuple = ()
    #: an example ``--cell`` spec for the option's help text.
    cell_example: str = ""
    #: ``--list-cells`` columns as (header, cell -> str) pairs.
    list_columns: tuple = ()
    #: Gate-specific argparse rows ((flag, kwargs), ...) and the planner
    #: that reads the parsed options: ``plan(gate, args) -> (cells,
    #: extras)``; raises :class:`ValueError` on a usage error.  Default:
    #: ``--cell`` alone.
    options: tuple = ()
    plan: Callable = lambda gate, args: (gate.select(args.cell), {})

    #: The baseline's schema, the default tolerance band and the metrics
    #: pinned per cell.
    schema: int = 1
    rtol: float = 0.05
    exact_metrics: tuple = ()
    banded_metrics: tuple = ()
    digest_metric: str | None = None
    #: Report nouns: "paper"-trend assertions whose violations cite the
    #: "paper" (or "scaling" trends citing the "scaling law").
    trend_noun: str = "paper"
    trend_source: str = "paper"

    #: records -> text: progress output, hidden by ``--quiet``.
    chart: Callable | None = None

    def select(self, specs: list[str] | None) -> list:
        """Resolve ``--cell`` specs to matrix cells (all when empty).

        A spec is up to three ``:``-separated components matched against
        ``cell_keys``; each may be a glob (``fig6:*-async``,
        ``chiba*:mpi-io``), wildcard-free ones match exactly, and the last
        is a processor count with an optional ``P`` prefix.  A spec must
        match at least one cell or :class:`ValueError` is raised (a typo
        must not silently pass the gate by checking nothing).
        """
        if not specs:
            return list(self.matrix)
        picked: dict = {}
        for spec in specs:
            parts = spec.split(":")
            if len(parts) > len(self.cell_keys) or not parts[0]:
                raise ValueError(
                    f"bad --cell spec {spec!r} (want {self.cell_grammar})"
                )
            if len(parts) > 2 and parts[2]:
                count = parts[2].lstrip("Pp")
                if count.isdigit():
                    count = str(int(count))
                elif not set(count) & set("*?["):
                    raise ValueError(
                        f"bad --cell spec {spec!r}: the processor count "
                        "must be an integer"
                    )
                parts[2] = count
            tests = [
                (key, _component_matcher(part))
                for key, part in zip(self.cell_keys, parts)
                if part
            ]
            matched = [
                c for c in self.matrix
                if all(test(str(getattr(c, key))) for key, test in tests)
            ]
            if not matched:
                heads = sorted({getattr(c, self.cell_keys[0])
                                for c in self.matrix})
                raise ValueError(
                    f"--cell {spec!r} matches no cell "
                    f"({self.cell_keys[0]}s: {', '.join(heads)})"
                )
            for c in matched:
                picked.setdefault(c, None)
        return list(picked)


#: family name -> module defining its ``GATE`` row.  The name is the *wire
#: format*: workers resolve the row lazily by name, so the executor never
#: pickles callables across the process boundary.
_FAMILY_MODULES = {
    "regress": "repro.bench.regression",
    "scale": "repro.bench.scale",
}


def get_family(name: str) -> Gate:
    """Resolve a family's :class:`Gate` row by name, importing its module."""
    module = _FAMILY_MODULES.get(name)
    if module is None:
        raise ValueError(
            f"unknown cell family {name!r} "
            f"(have: {', '.join(sorted(_FAMILY_MODULES))})"
        )
    return importlib.import_module(module).GATE


def gates() -> dict[str, Gate]:
    """The gate table: every family module's ``GATE`` row, by family name."""
    return {name: get_family(name) for name in _FAMILY_MODULES}


def run_gate(
    gate: Gate,
    cells: list | None = None,
    *,
    extras: dict | None = None,
    jobs: int = 1,
    cache=None,
    telemetry=None,
    progress=None,
) -> dict:
    """Run ``cells`` (default: the gate's matrix) and assemble the payload.

    Returns a baseline-shaped dict (``schema``/``rtol``/``cells``/
    ``trends``) ready to be compared or committed; a trend is evaluated
    when every cell it reads was run.  ``extras`` maps cell ids to
    per-cell override dicts; ``jobs``/``cache``/``telemetry`` are threaded
    to :func:`repro.bench.executor.run_cells` (default: in-process,
    uncached).
    """
    from .executor import run_cells

    cells = list(gate.matrix) if cells is None else cells
    records = run_cells(gate.family, cells, extras=extras, jobs=jobs,
                        cache=cache, telemetry=telemetry, progress=progress)
    trends = [
        evaluate_trend(t, records)
        for t in gate.trends
        if all(c in records for c in t.cells)
    ]
    return {"schema": gate.schema, "rtol": gate.rtol,
            "cells": records, "trends": trends}


def load_baseline(gate: Gate, path: str | None = None) -> dict:
    """Load and structurally validate a gate's committed baseline file."""
    path = path or gate.baseline
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or "cells" not in payload:
        raise ValueError(f"{path} is not a {gate.family} baseline (no 'cells')")
    if payload.get("schema") != gate.schema:
        raise ValueError(
            f"{path} has baseline schema {payload.get('schema')!r}, "
            f"expected {gate.schema}"
        )
    return payload


def save_baseline(payload: dict, path: str) -> None:
    """Write a gate payload (baseline or ``--out`` artifact) canonically."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# -- trend evaluation ---------------------------------------------------------


def evaluate_trend(t, records: dict) -> dict:
    """One trend against live records; ratio trends divide each side.

    String-valued metrics (golden file digests pinned with an ``eq``
    relation) are compared verbatim; ratio divisors and the right-hand
    scale factor only apply to numeric metrics.
    """
    rmetric = getattr(t, "right_metric", None) or t.metric
    lhs = records[t.left][t.metric]
    rhs = records[t.right][rmetric]
    out = {
        "id": t.id,
        "description": t.description,
        "metric": t.metric,
        "left": t.left,
        "relation": t.relation,
        "right": t.right,
    }
    if rmetric != t.metric:
        out["right_metric"] = rmetric
    if isinstance(lhs, str) or isinstance(rhs, str):
        out["lhs"], out["rhs"] = lhs, rhs
        out["ok"] = t.holds(lhs, rhs)
        return out
    if t.left_div is not None:
        lhs /= records[t.left_div][t.metric] or 1.0
        out["left_div"] = t.left_div
    if t.right_div is not None:
        rhs /= records[t.right_div][rmetric] or 1.0
        out["right_div"] = t.right_div
    rfactor = getattr(t, "rfactor", 1.0)
    if rfactor != 1.0:
        rhs *= rfactor
        out["rfactor"] = rfactor
    out["lhs"] = round(float(lhs), 6)
    out["rhs"] = round(float(rhs), 6)
    out["ok"] = t.holds(lhs, rhs)
    return out


# -- baseline comparison ------------------------------------------------------


class GateReport:
    """The outcome of one compare: violations plus coverage counts."""

    def __init__(self, violations: list[dict], cells_checked: int,
                 trends_checked: int):
        self.violations = violations
        self.cells_checked = cells_checked
        self.trends_checked = trends_checked

    @property
    def ok(self) -> bool:
        return not self.violations


def _fmt_side(value) -> str:
    """One side of a trend for the report: numbers short, digests clipped."""
    if isinstance(value, (int, float)):
        return f"{value:.4g}"
    return str(value)[:18]


def _band_violation(cell_id, metric, cur, base, rtol):
    if base == 0 and cur == 0:
        return None
    denom = abs(base) if base else 1.0
    delta = (cur - base) / denom
    if abs(delta) <= rtol:
        return None
    return {
        "cell": cell_id,
        "kind": "band",
        "metric": metric,
        "current": cur,
        "baseline": base,
        "detail": f"{delta:+.1%} vs baseline (band ±{rtol:.0%})",
    }


def compare(gate: Gate, current: dict, baseline: dict, *,
            rtol: float | None = None) -> GateReport:
    """Compare a fresh run against a committed baseline payload.

    Only cells present in ``current`` are compared (so ``--cell`` subsets
    check their slice of the baseline); a selected cell missing from the
    baseline is itself a violation -- the gate must never silently skip.
    Trend assertions are taken from ``current`` (they were evaluated
    against live numbers by :func:`run_gate`), so a perf PR can never
    silently invert a pinned result even if it also updates the baseline.
    """
    rtol = baseline.get("rtol", gate.rtol) if rtol is None else rtol
    digest = gate.digest_metric
    violations: list[dict] = []
    base_cells = baseline.get("cells", {})
    cur_cells = current.get("cells", {})
    for cell_id, cur in sorted(cur_cells.items()):
        base = base_cells.get(cell_id)
        if base is None:
            violations.append({
                "cell": cell_id, "kind": "missing-cell", "metric": "-",
                "current": "-", "baseline": "-",
                "detail": "cell not in baseline (run --update-baseline)",
            })
            continue
        if digest and cur[digest] != base[digest]:
            violations.append({
                "cell": cell_id, "kind": "digest", "metric": digest,
                "current": cur[digest][:18] + "...",
                "baseline": base[digest][:18] + "...",
                "detail": "golden trace diverged (determinism/behaviour change)",
            })
        for metric in gate.banded_metrics:
            v = _band_violation(cell_id, metric, cur[metric], base[metric], rtol)
            if v:
                violations.append(v)
        for metric in gate.exact_metrics:
            if cur.get(metric) != base.get(metric):
                violations.append({
                    "cell": cell_id, "kind": "count", "metric": metric,
                    "current": cur.get(metric), "baseline": base.get(metric),
                    "detail": "exact-match counter changed",
                })
    for trend in current.get("trends", []):
        if not trend["ok"]:
            lhs = trend.get("lhs")
            if lhs is None:  # payloads from before ratio trends
                lhs = cur_cells[trend["left"]][trend["metric"]]
            rhs = trend.get("rhs")
            if rhs is None:
                rhs = cur_cells[trend["right"]][trend["metric"]]
            violations.append({
                "cell": f"{trend['left']} vs {trend['right']}",
                "kind": "trend", "metric": trend["metric"],
                "current": f"{_fmt_side(lhs)} {trend['relation']}? "
                           f"{_fmt_side(rhs)}",
                "baseline": gate.trend_source,
                "detail": f"{trend['id']}: {trend['description']}",
            })
    return GateReport(
        violations, len(cur_cells), len(current.get("trends", []))
    )


def format_report(gate: Gate, report: GateReport, *,
                  title: str | None = None) -> str:
    """Readable gate outcome: a per-cell diff table naming each violation."""
    title = title or f"repro {gate.family}"
    lines = [title, "=" * len(title)]
    lines.append(
        f"{report.cells_checked} cells, {report.trends_checked} "
        f"{gate.trend_noun}-trend assertions checked"
    )
    if report.ok:
        pinned = "digests" if gate.digest_metric else "counters"
        lines.append(
            f"gate: PASS ({pinned} exact, bandwidth in band, "
            f"all {gate.trend_noun} trends hold)"
        )
        return "\n".join(lines)
    lines.append(f"gate: FAIL ({len(report.violations)} violation(s))\n")
    rows = [
        [
            v["cell"],
            v["kind"],
            v["metric"],
            str(v["baseline"]),
            str(v["current"]),
            v["detail"],
        ]
        for v in report.violations
    ]
    lines.append(
        format_table(
            ["cell", "check", "metric", "baseline", "current", "why"], rows
        )
    )
    return "\n".join(lines)
