"""Parallel bench executor: fan cells across a process pool, merge
deterministically, replay cache hits.

:func:`run_cells` is the one engine every bench matrix (regress, scale,
overlap, insights) runs through:

1. **cache probe** -- with a :class:`~repro.bench.cellcache.CellCache`
   attached, each cell's content address (canonical spec + source-tree
   digest + python/numpy versions) is looked up first; a hit replays the
   cached canonical record with no simulation;
2. **fan-out** -- misses run either inline (``jobs == 1``, no
   subprocesses involved) or across a ``spawn``-based
   process pool.  Workers receive ``(family_name, cell, extra)``, resolve
   the family's ``Gate`` row by name
   (:func:`~repro.bench.cellrunner.get_family`) and run the cell against a
   machine they build themselves -- nothing is shared, so cells cannot
   interact;
3. **deterministic merge** -- records are keyed and ordered by the
   caller's cell order regardless of completion order, and each record is
   a pure function of its spec (simulated clocks + golden digests), so
   ``jobs=N`` output is byte-identical to ``jobs=1`` output.  The test
   suite asserts this equality and the regress gate's golden digests
   would expose any violation on real cells.

Per-cell telemetry (wall µs, cache hit/miss, worker id, queue wait) is
recorded into a :class:`~repro.bench.timings.Telemetry` when one is
passed, feeding the ``BENCH_timings.json`` artifact.

``spawn`` (not ``fork``) is used deliberately: the simulator runs many
threads per SPMD job, and forking a previously multi-threaded interpreter
is unreliable; ``python -m repro``'s entry point is ``__main__``-guarded,
so spawned workers import the package cleanly.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

from .cellcache import CellCache
from .cellrunner import get_family
from .timings import Telemetry

__all__ = [
    "JOBS_ENV",
    "default_jobs",
    "resolve_jobs",
    "run_cells",
]

JOBS_ENV = "REPRO_JOBS"


def default_jobs(n_cells: int) -> int:
    """``min(os.cpu_count(), n_cells)``, at least 1."""
    return max(1, min(os.cpu_count() or 1, max(n_cells, 1)))


def resolve_jobs(requested: int | None, n_cells: int,
                 env: dict | None = None) -> int:
    """The worker count for a run of ``n_cells`` cells.

    ``requested`` is the ``--jobs`` flag (``None`` = not given, fall back
    to the ``REPRO_JOBS`` environment override, then to
    :func:`default_jobs`).  Zero or negative values -- from the flag or
    the environment -- raise :class:`ValueError`; the CLI maps that to
    exit 2.
    """
    env = os.environ if env is None else env
    if requested is None:
        raw = env.get(JOBS_ENV, "").strip()
        if not raw:
            return default_jobs(n_cells)
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(
                f"bad {JOBS_ENV} value {raw!r} (want a positive integer)"
            )
        if requested < 1:
            raise ValueError(
                f"bad {JOBS_ENV} value {requested} (want a positive integer)"
            )
        return min(requested, max(n_cells, 1))
    if requested < 1:
        raise ValueError(
            f"--jobs must be a positive integer (got {requested}); "
            "use --jobs 1 for the serial path"
        )
    return requested


def _execute(family_name: str, cell, extra: dict):
    """Worker entry point: run one cell, stamp host timings.

    Top-level so it pickles by reference; the family is re-resolved by
    name inside the worker process.
    """
    start = time.monotonic()
    record = get_family(family_name).run(cell, extra)
    return record, start, time.monotonic(), os.getpid()


def run_cells(
    family_name: str,
    cells: list,
    *,
    extras: dict | None = None,
    jobs: int = 1,
    cache: CellCache | None = None,
    telemetry: Telemetry | None = None,
    progress=None,
) -> dict[str, dict]:
    """Run every cell and return ``{cell_id: record}`` in caller order.

    ``extras`` maps cell ids to per-cell override dicts (part of the
    cache identity).  ``cache=None`` disables caching; ``jobs=1`` is the
    in-process serial path.  Worker failures propagate: a cell that
    raises fails the whole run loudly, never a partial silent result.
    """
    family = get_family(family_name)
    extras = extras or {}
    order = [(cell.id, cell) for cell in cells]
    records: dict[str, dict] = {}
    pending: list[tuple[str, object, dict, str | None]] = []

    def note(cell_id, *, wall_us, cache_state, worker, queue_wait_us):
        if telemetry is not None:
            telemetry.add(cell_id, wall_us=wall_us, cache=cache_state,
                          worker=worker, queue_wait_us=queue_wait_us)

    for cell_id, cell in order:
        extra = extras.get(cell_id, {})
        if cache is not None:
            key = cache.key(family_name, family.spec(cell, extra))
            t0 = time.monotonic()
            record = cache.get(key)
            if record is not None:
                records[cell_id] = record
                note(cell_id,
                     wall_us=round((time.monotonic() - t0) * 1e6),
                     cache_state="hit", worker=-1, queue_wait_us=0)
                if progress:
                    progress(f"cached {family.describe(cell)}")
                continue
            pending.append((cell_id, cell, extra, key))
        else:
            pending.append((cell_id, cell, extra, None))

    cache_state = "off" if cache is None else "miss"
    effective = min(jobs, len(pending)) if pending else 1
    if effective <= 1:
        for cell_id, cell, extra, key in pending:
            if progress:
                progress(f"running {family.describe(cell)}")
            t0 = time.monotonic()
            record = family.run(cell, extra)
            wall_us = round((time.monotonic() - t0) * 1e6)
            records[cell_id] = record
            if key is not None:
                cache.put(key, cell_id, record)
            note(cell_id, wall_us=wall_us, cache_state=cache_state,
                 worker=0, queue_wait_us=0)
    else:
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=effective, mp_context=ctx) as pool:
            futures = {}
            for cell_id, cell, extra, key in pending:
                fut = pool.submit(_execute, family_name, cell, extra)
                futures[fut] = (cell_id, cell, key, time.monotonic())
            worker_ids: dict[int, int] = {}
            not_done = set(futures)
            while not_done:
                done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                for fut in done:
                    cell_id, cell, key, submitted = futures[fut]
                    record, start, end, pid = fut.result()
                    records[cell_id] = record
                    if key is not None:
                        cache.put(key, cell_id, record)
                    worker = worker_ids.setdefault(pid, len(worker_ids))
                    note(cell_id,
                         wall_us=round((end - start) * 1e6),
                         cache_state=cache_state, worker=worker,
                         queue_wait_us=max(0, round((start - submitted) * 1e6)))
                    if progress:
                        progress(f"finished {family.describe(cell)}")

    return {cell_id: records[cell_id] for cell_id, _ in order}
