"""Per-cell executor telemetry and the ``BENCH_timings.json`` artifact.

Every bench run through :func:`repro.bench.executor.run_cells` records,
per cell: host wall time (µs), cache outcome (hit/miss/off), the worker
that ran it and how long it waited in the queue.  The families merge
their sections into one ``BENCH_timings.json`` so a full verify flow
leaves a single artifact describing where the wall-clock went;
``repro bench timings`` prints it (``--top N`` for the slowest cells).

Telemetry measures the *host*, not the simulated machine -- it is never
compared against a baseline and is deliberately kept out of the cell
records themselves so those stay byte-identical across serial, parallel
and cache-replay execution.
"""

from __future__ import annotations

import json
import os
import tempfile

from ..core.report import format_table

__all__ = [
    "TIMINGS_PATH",
    "TIMINGS_SCHEMA",
    "Telemetry",
    "format_timings",
    "load_timings",
    "save_timings",
]

TIMINGS_PATH = "BENCH_timings.json"
TIMINGS_SCHEMA = 1


class Telemetry:
    """One family's per-cell timing entries for a single bench run."""

    def __init__(self, family: str, jobs: int = 1):
        self.family = family
        self.jobs = jobs
        self.entries: list[dict] = []

    def add(self, cell_id: str, *, wall_us: int, cache: str, worker: int,
            queue_wait_us: int) -> None:
        self.entries.append({
            "cell": cell_id,
            "wall_us": int(wall_us),
            "cache": cache,
            "worker": int(worker),
            "queue_wait_us": int(queue_wait_us),
        })

    @property
    def hits(self) -> int:
        return sum(1 for e in self.entries if e["cache"] == "hit")

    @property
    def misses(self) -> int:
        return sum(1 for e in self.entries if e["cache"] != "hit")

    def to_payload(self) -> dict:
        return {
            "jobs": self.jobs,
            "cells": len(self.entries),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "total_wall_us": sum(e["wall_us"] for e in self.entries),
            "entries": self.entries,
        }


def load_timings(path: str = TIMINGS_PATH) -> dict:
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or "families" not in payload:
        raise ValueError(f"{path} is not a timings artifact (no 'families')")
    return payload


def save_timings(telemetry: Telemetry, path: str = TIMINGS_PATH) -> dict:
    """Merge one family's telemetry into the artifact at ``path``.

    Other families' sections are preserved (a verify flow runs regress
    and scale back to back into the same file); an unreadable
    existing file is replaced rather than crashing the bench that is
    trying to report.
    """
    try:
        payload = load_timings(path)
    except (FileNotFoundError, ValueError, OSError):
        payload = {"schema": TIMINGS_SCHEMA, "families": {}}
    payload["schema"] = TIMINGS_SCHEMA
    payload["families"][telemetry.family] = telemetry.to_payload()
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return payload


def _rows(payload: dict) -> list[tuple[str, dict]]:
    out = []
    for family in sorted(payload.get("families", {})):
        for entry in payload["families"][family].get("entries", []):
            out.append((family, entry))
    return out


def format_timings(payload: dict, *, top: int | None = None) -> str:
    """The per-cell telemetry table; ``top`` selects the N slowest cells."""
    headers = ["family", "cell", "wall [us]", "cache", "worker", "wait [us]"]
    rows = _rows(payload)
    lines = []
    if top is not None:
        rows = sorted(rows, key=lambda r: -r[1]["wall_us"])[:top]
        lines.append(f"repro bench timings -- {len(rows)} slowest cell(s)")
    else:
        lines.append(f"repro bench timings -- {len(rows)} cell(s)")
    lines.append(format_table(
        headers,
        [
            [
                family,
                e["cell"],
                str(e["wall_us"]),
                e["cache"],
                str(e["worker"]) if e["worker"] >= 0 else "-",
                str(e["queue_wait_us"]),
            ]
            for family, e in rows
        ],
    ))
    for family in sorted(payload.get("families", {})):
        section = payload["families"][family]
        lines.append(
            f"{family}: {section.get('cells', 0)} cells, "
            f"jobs={section.get('jobs', 1)}, "
            f"{section.get('cache_hits', 0)} cache hit(s), "
            f"{section.get('cache_misses', 0)} miss(es), "
            f"total {section.get('total_wall_us', 0) / 1e6:.2f}s wall"
        )
    return "\n".join(lines)
