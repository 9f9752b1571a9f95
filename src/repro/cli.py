"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1``                     -- print the data-volume table;
* ``figure fig6|fig7|fig8|fig9|fig10`` -- run one figure's cells of the
  regress matrix and draw the paper-style chart;
* ``analyze``                    -- trace a checkpoint dump (or load a saved
  trace) and print the Pablo-style I/O report;
* ``insights``                   -- run the Drishti-style detector rules
  over a saved trace and print the severity-ranked diagnosis;
* ``tune``                       -- closed-loop auto-tuning: diagnose,
  apply the recommended strategy/hints, re-run, report the delta;
* ``simulate``                   -- run the full ENZO flow with dumps and a
  verified restart;
* ``table``                      -- run the strategy-comparison experiment
  and print the results table (including recovery counts);
* ``regress``                    -- the paper-figure conformance &
  performance-regression gate: run the Figure 5-10 cell matrix, compare
  against the committed ``BENCH_figures.json`` baseline (golden trace
  digests, bandwidth bands, paper trend assertions); exit 0 = green,
  1 = regression, 2 = usage error;
* ``scale``                      -- the weak-scaling gate past the paper's
  processor counts: P in {16..1024} x strategy x machine, compared against
  ``BENCH_scale.json`` (exact counters, banded bandwidths, pinned scaling
  trends); same exit convention as ``regress``;
* ``bench timings``              -- print the per-cell executor telemetry
  (wall µs, cache hit/miss, worker id, queue wait) recorded in
  ``BENCH_timings.json``.

The matrix gates (``regress``/``scale``) are the rows of the gate table
``repro.bench.GATES``: their sub-parsers are built from the rows and one
handler (``_cmd_gate``) serves them all.  Each diffs a committed
baseline; the compute/checkpoint-overlap claims are ``regress`` trends
(every async cell runs its own synchronous twin).
They share the executor options ``--jobs N`` (default
``min(os.cpu_count(), n_cells)``, overridable with ``REPRO_JOBS``;
``--jobs 1`` runs the cells in-process; 0 or negative is a usage
error), ``--no-cache`` (skip the content-addressed result cache, also
``REPRO_CACHE=0``) and ``--timings PATH`` (telemetry artifact, default
``BENCH_timings.json``).

* ``scenarios``                  -- list the workload scenario registry
  (built-in ``AMR*`` sizes plus the parameter-file scenarios);
  ``--check`` lints every entry (parse, normalize, build).

Common options: ``--problem AMR16|AMR32|AMR64|AMR128`` and ``--procs N``;
``analyze``/``simulate``/``tune`` also take ``--scenario NAME`` or
``--param-file PATH`` (Enzo- or Nyx-dialect, auto-detected) with
``--downscale K`` to shrink production files to laptop scale.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .bench import (
    GATES,
    MATRIX,
    build_initial_workload,
    build_workload,
    run_cell,
    run_checkpoint_experiment,
)
from .bench.figures import render_figure
from .bench.runners import run_job
from .core import format_table
from .enzo import table1
from .iostack import registry
from .pfs import InjectedIOError
from .scenarios import ScenarioError
from .sim import RankFailedError
from .topology import PRESETS

__all__ = ["main"]


def _make_strategy(name: str, retry=None):
    """Instantiate a registered strategy composition by name."""
    return registry.create(name, retry=retry)


def _add_scenario_args(parser) -> None:
    """The shared workload-selection options (``--problem`` & friends)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--scenario", default=None, metavar="NAME",
                       help="run a registered scenario instead of --problem "
                            "(see 'repro scenarios')")
    group.add_argument("--param-file", default=None, metavar="PATH",
                       help="load the workload from an Enzo- or Nyx-style "
                            "parameter file (dialect auto-detected)")
    parser.add_argument("--downscale", type=int, default=0, metavar="K",
                        help="run the scenario at 1/K linear resolution "
                             "(production parameter files in seconds)")


def _resolve_problem(args):
    """``--problem``/``--scenario``/``--param-file`` to a workload problem.

    Returns a registered scenario name (str; ``None`` when ``--problem``
    was left to the command's default) or a
    :class:`~repro.scenarios.Scenario`; raises
    :class:`~repro.scenarios.ScenarioError` for unknown names,
    unreadable/malformed parameter files, and bad downscale factors.
    """
    from .scenarios import load_param_file, resolve_scenario
    from .scenarios import registry as scenario_registry

    problem = args.problem
    if getattr(args, "scenario", None):
        problem = scenario_registry.get(args.scenario)
    if getattr(args, "param_file", None):
        problem = load_param_file(args.param_file)
    if problem is None:
        return None
    scenario = resolve_scenario(problem)  # unknown: "choose from [...]"
    k = getattr(args, "downscale", 0) or 0
    return scenario.downscaled(k) if k > 1 else problem


class _UsageError(ValueError):
    """Bad command-line input: ``main`` prints it and exits 2."""


def _require_nonnegative(args, *flags) -> None:
    """Reject a negative ``--flag`` (0 is "off" / "unknown")."""
    for flag in flags:
        value = getattr(args, flag, 0)
        if value < 0:
            raise _UsageError(
                f"--{flag} must be a non-negative integer (got {value})"
            )


def _job_setup(args):
    """Validate a job command's options before anything runs.

    Returns ``(problem, preset, strategy)``: the resolved workload (see
    :func:`_resolve_problem`), the machine preset (``--machine``, the
    Origin2000 for commands without the option) and the ``--strategy``
    name, checked against that machine's file system (``None`` for
    commands that run several).  Raises :class:`_UsageError` naming the
    offending option.
    """
    for flag in ("procs", "cycles"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise _UsageError(
                f"--{flag} must be a positive integer (got {value})"
            )
    _require_nonnegative(args, "downscale", "rounds", "retries")
    preset = PRESETS[getattr(args, "machine", "origin2000")]
    strategy = getattr(args, "strategy", None)
    try:
        problem = _resolve_problem(args)
        if strategy:
            registry.check_filesystem(strategy, preset(nprocs=args.procs).fs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return problem, preset, strategy


def _retry_policy(args):
    """A RetryPolicy from ``--retries N``, or None when N == 0."""
    n = getattr(args, "retries", 0)
    if not n:
        return None
    from .resilience import RetryPolicy

    return RetryPolicy(max_retries=n)


def _add_executor_args(parser) -> None:
    """The shared executor options of the matrix gates."""
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the cell matrix (default: "
                             "min(cpu count, cells), or $REPRO_JOBS; "
                             "--jobs 1 runs in-process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="skip the content-addressed result cache "
                             "(.repro-cache/; also REPRO_CACHE=0)")
    parser.add_argument("--timings", default="BENCH_timings.json",
                        metavar="PATH",
                        help="per-cell telemetry artifact to merge into "
                             "(default BENCH_timings.json; '' disables)")


def _executor_options(args, n_cells: int, family: str):
    """Resolve (jobs, cache, telemetry) from the shared executor flags.

    Raises :class:`ValueError` on a bad ``--jobs``/``REPRO_JOBS`` value --
    callers exit 2, it is a usage error.
    """
    from .bench.cellcache import CellCache
    from .bench.executor import resolve_jobs
    from .bench.timings import Telemetry

    jobs = resolve_jobs(args.jobs, n_cells)
    cache = CellCache.from_env(disabled=args.no_cache)
    return jobs, cache, Telemetry(family, jobs)


def _finish_telemetry(args, telemetry, cache, progress) -> None:
    """Merge the run's telemetry into the artifact and report cache use."""
    from .bench.timings import save_timings

    if args.timings:
        save_timings(telemetry, args.timings)
    if progress and cache is not None:
        print(f"  cache: {cache.hits} hit(s), {cache.misses} miss(es)"
              + (f", {cache.corrupt} corrupt entr(ies) dropped"
                 if cache.corrupt else ""))


def _arm_fault(fs, spec: str) -> bool:
    """Arm an injected fault from ``--inject OP[:MODE[:PATH[:AFTER]]]``.

    Examples: ``write:torn``, ``write:persistent:run``,
    ``write:oneshot:run:3``.  Prints a diagnostic and returns False on a
    malformed spec (callers exit 2 -- it is a usage error).
    """
    parts = spec.split(":")
    op = parts[0]
    mode = parts[1] if len(parts) > 1 and parts[1] else "oneshot"
    path = parts[2] if len(parts) > 2 else ""
    try:
        after = int(parts[3]) if len(parts) > 3 and parts[3] else 0
        fs.inject_fault(op, path, mode=mode, after=after)
    except ValueError as exc:
        print(f"error: bad --inject spec {spec!r}: {exc}", file=sys.stderr)
        return False
    return True


#: The figures ``repro figure`` charts; their cells are ``MATRIX``'s.
FIGURE_TITLES = {
    "fig6": "Figure 6: ENZO I/O on SGI Origin2000 / XFS",
    "fig7": "Figure 7: ENZO I/O on IBM SP / GPFS",
    "fig8": "Figure 8: ENZO I/O on Chiba City / PVFS (fast Ethernet)",
    "fig9": "Figure 9: ENZO I/O on Chiba City / node-local disks",
    "fig10": "Figure 10: HDF5 vs MPI-IO write on SGI Origin2000",
}


def cmd_table1(args) -> int:
    rows = table1()
    print("Table 1: amount of data read/written by the ENZO application")
    print(
        format_table(
            ["problem", "read [MB]", "write [MB]"],
            [
                [r["problem"], f"{r['read_mb']:.1f}", f"{r['write_mb']:.1f}"]
                for r in rows
            ],
        )
    )
    return 0


def cmd_figure(args) -> int:
    """Chart one figure's synchronous regress cells (``MATRIX``).

    Without options the cells are exactly the committed ones, so the
    numbers are ``BENCH_figures.json``'s; ``--procs`` runs each of the
    figure's strategies at that one count and ``--problem`` swaps the
    workload.
    """
    problem, _preset, _strategy = _job_setup(args)
    cells = [
        c for c in MATRIX
        if c.figure == args.name
        and not registry.get(c.strategy).options.get("async")
    ]
    if args.procs is not None:
        cells = list(dict.fromkeys(replace(c, nprocs=args.procs) for c in cells))
    if problem is not None:
        cells = [replace(c, problem=problem) for c in cells]
    series_w: dict[str, dict] = {}
    series_r: dict[str, dict] = {}
    points = []
    for cell in cells:
        rec = run_cell(cell)
        series_w.setdefault(cell.strategy, {})[f"P={cell.nprocs}"] = rec["write_s"]
        if cell.do_read:
            series_r.setdefault(cell.strategy, {})[f"P={cell.nprocs}"] = rec["read_s"]
        points.append(
            {
                "figure": args.name,
                "problem": cell.problem,
                "nprocs": cell.nprocs,
                "strategy": cell.strategy,
                "write_s": rec["write_s"],
                "read_s": rec["read_s"],
                "mb_written": rec["bytes_written"] / 2**20,
            }
        )
    title, problem = FIGURE_TITLES[args.name], cells[0].problem
    print(render_figure(f"{title} -- WRITE ({problem})", series_w))
    if series_r:
        print()
        print(render_figure(f"{title} -- READ ({problem})", series_r))
    if args.json:
        import json

        with open(args.json, "w") as f:
            json.dump(points, f, indent=2)
        print(f"\nwrote {len(points)} data points to {args.json}")
    return 0


def _load_trace(path: str):
    """Load a saved trace, or print a diagnostic and return None.

    Callers exit with status 2 (bad input) when this returns None -- a
    missing or corrupt trace file is a usage error, not a crash.
    """
    from .core import IOTrace

    try:
        return IOTrace.load(path)
    except FileNotFoundError:
        print(f"error: trace file not found: {path}", file=sys.stderr)
    except IsADirectoryError:
        print(f"error: {path} is a directory, not a trace file", file=sys.stderr)
    except (ValueError, TypeError, KeyError, OSError) as exc:
        # json decode errors are ValueError; unexpected event fields are
        # TypeError -- both mean "not a trace produced by IOTrace.save".
        print(f"error: cannot parse trace file {path}: {exc}", file=sys.stderr)
    return None


def cmd_analyze(args) -> int:
    from .core import format_trace_report, trace_filesystem
    from .enzo import RankState

    if args.trace:
        trace = _load_trace(args.trace)
        if trace is None:
            return 2
        print(format_trace_report(trace, title=f"saved trace {args.trace}"))
        return 0

    problem, preset, name = _job_setup(args)
    machine = preset(nprocs=args.procs)
    hierarchy = build_workload(problem)
    strategy = _make_strategy(name, retry=_retry_policy(args))

    def program(comm):
        state = RankState.from_hierarchy(hierarchy, comm.rank, comm.size)
        strategy.write_checkpoint(comm, state, "dump")

    with trace_filesystem(machine.fs, include_meta=True) as trace:
        run_job(machine, program, nprocs=args.procs)
    print(
        format_trace_report(
            trace, title=f"{strategy.name} dump of {problem}"
        )
    )
    if args.save_trace:
        trace.save(args.save_trace)
        print(f"\nwrote {len(trace)} events to {args.save_trace}")
    return 0


def cmd_insights(args) -> int:
    from .insights import Severity, diagnose, format_report, report_to_json

    _require_nonnegative(args, "procs", "stripe")
    trace = _load_trace(args.trace)
    if trace is None:
        return 2
    diagnosis = diagnose(
        trace,
        nprocs=args.procs or 0,
        stripe_size=args.stripe,
        strategy=args.strategy,
    )
    if args.json:
        print(report_to_json(diagnosis))
    else:
        print(
            format_report(
                diagnosis,
                title=f"repro.insights -- {args.trace}",
                color=None if args.color == "auto" else args.color == "always",
                show_ok=not args.issues,
            )
        )
    return 1 if args.check and diagnosis.count(Severity.HIGH) else 0


def cmd_tune(args) -> int:
    import json

    from .insights import AutoTuner

    problem, preset, strategy = _job_setup(args)
    tuner = AutoTuner(
        lambda n: preset(nprocs=n),
        problem=problem,
        nprocs=args.procs,
        strategy=strategy,
        max_rounds=args.rounds,
        retry=_retry_policy(args),
    )
    report = tuner.tune()
    print(report.explain())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
        print(f"wrote tuning report to {args.out}")
    return 0 if report.bandwidth_delta >= 0 else 1


def cmd_simulate(args) -> int:
    from .enzo import (
        EnzoConfig,
        EnzoSimulation,
        RankState,
        hierarchies_equivalent,
    )
    from .scenarios import Scenario

    problem, preset, name = _job_setup(args)
    machine = preset(nprocs=args.procs)
    ncycles = args.cycles
    if ncycles is None and not isinstance(problem, Scenario):
        ncycles = 2  # a plain --problem; a scenario runs its own count
    config = EnzoConfig(problem=problem, ncycles=ncycles)
    hierarchy = EnzoSimulation.build_initial_hierarchy(config)
    if args.inject and not _arm_fault(machine.fs, args.inject):
        return 2
    sim = EnzoSimulation(
        config=config,
        strategy=_make_strategy(name, retry=_retry_policy(args)),
        hierarchy=hierarchy,
    )
    results = run_job(machine, lambda c: sim.run(c, base="run"),
                      nprocs=args.procs)
    summary = results.results[0]
    print(f"{summary['cycles']} cycles, {summary['grids']} grids, "
          f"dump time {summary['write_time']:.3f}s (rank 0, simulated)")
    if summary["plot_dumps"] or summary["redshift_dumps"]:
        print(f"{len(summary['plot_dumps'])} plot file(s) "
              f"({summary['plot_bytes'] / 2**20:.1f} MB), "
              f"{len(summary['redshift_dumps'])} redshift dump(s)")
    if not summary["dumps"]:
        # e.g. amr.checkpoint_files_output=0: nothing to restart from.
        print("no checkpoints written (checkpoint stream disabled); "
              "skipping restart verification")
        return 0
    last = summary["dumps"][-1]
    restart = run_job(machine, lambda c: sim.restart(c, last),
                      nprocs=args.procs)
    ok = hierarchies_equivalent(RankState.collect(restart.results),
                                sim.hierarchy)
    print(f"restart of {last}: {'verified bit-exact' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def cmd_table(args) -> int:
    """Run each strategy once on one machine and print the results table."""
    problem, preset, _strategy = _job_setup(args)
    dump = build_workload(problem)
    init = build_initial_workload(problem)
    rows = []
    for name in registry.names():
        machine = preset(nprocs=args.procs)
        try:
            registry.check_filesystem(name, machine.fs)
        except ValueError as exc:
            print(f"  skipping {name}: {exc}", file=sys.stderr)
            continue
        if args.inject and not _arm_fault(machine.fs, args.inject):
            return 2
        result = run_checkpoint_experiment(
            machine,
            _make_strategy(name, retry=_retry_policy(args)),
            dump,
            nprocs=args.procs,
            read_hierarchy=init,
        )
        rows.append(result.row())
    from .bench import ExperimentResult

    print(f"strategy comparison -- {args.problem}, P={args.procs}")
    print(format_table(ExperimentResult.HEADERS, rows))
    return 0


def cmd_strategies(args) -> int:
    """List the registered strategy compositions (layered I/O stack)."""
    rows = []
    for comp in registry.compositions():
        rows.append([
            comp.name,
            comp.layout,
            comp.transport,
            comp.format,
            "yes" if comp.takes_hints else "no",
            comp.fs_constraint or "-",
            ", ".join(f"{k}={v}" for k, v in sorted(comp.options.items()))
            or "-",
        ])
    print("registered I/O strategy compositions (repro.iostack.registry)")
    print(format_table(
        ["name", "layout", "transport", "format", "hints", "requires",
         "options"], rows
    ))
    for comp in registry.compositions():
        if comp.description:
            print(f"  {comp.name}: {comp.description}")
    return 0


def cmd_scenarios(args) -> int:
    """List the scenario registry; ``--check`` lints every entry."""
    from .scenarios import registry as scenario_registry

    rows = []
    for s in scenario_registry.scenarios():
        cadence = []
        if s.checkpoint_every:
            cadence.append(f"ckpt/{s.checkpoint_every}")
        if s.plot_every:
            cadence.append(f"plot/{s.plot_every}")
        if s.output_redshifts:
            cadence.append(f"z x{len(s.output_redshifts)}")
        rows.append([
            s.name,
            s.source_dialect,
            "x".join(str(d) for d in s.root_dims),
            str(s.max_level),
            str(len(s.nested_grids)) if s.nested_grids else "-",
            str(s.ncycles),
            " ".join(cadence) or "-",
        ])
    print("registered scenarios (repro.scenarios.registry)")
    print(format_table(
        ["name", "dialect", "root", "maxL", "nested", "cycles", "cadence"],
        rows,
    ))
    for s in scenario_registry.scenarios():
        if s.description:
            print(f"  {s.name}: {s.description}")
    if not args.check:
        return 0

    # Lint: every registered scenario must validate and build a hierarchy
    # (capped to laptop scale so the 256^3 entries stay fast).
    from .scenarios import build_hierarchy

    failures = 0
    for s in scenario_registry.scenarios():
        try:
            s.validate()
            h = build_hierarchy(s.capped(32), initial=True)
            print(f"  ok: {s.name} ({len(h)} grids, max level "
                  f"{h.max_level})")
        except (ScenarioError, ValueError) as exc:
            failures += 1
            print(f"  FAIL: {s.name}: {exc}", file=sys.stderr)
    if failures:
        print(f"scenario check: {failures} scenario(s) failed",
              file=sys.stderr)
        return 1
    print(f"scenario check: all {len(scenario_registry.names())} "
          "scenario(s) parse, normalize and build")
    return 0


def _cmd_gate(gate, args) -> int:
    """Serve one row of the gate table (``repro.bench.GATES``).

    select -> ``--list-cells`` -> load the baseline -> run -> telemetry ->
    chart -> ``--out`` -> ``--update-baseline`` merge *or* baseline diff.
    """
    from .bench import cellrunner as cr

    title = f"repro {gate.family}"
    rtol = args.rtol
    try:
        if rtol is not None and not 0 <= rtol < float("inf"):
            raise ValueError(f"--rtol must be a non-negative fraction "
                             f"(got {rtol})")
        cells, extras = gate.plan(gate, args)
        jobs, cache, telemetry = _executor_options(args, len(cells),
                                                   gate.family)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.list_cells:
        print(f"{title}: {len(cells)} cell(s)")
        print(format_table(
            [header for header, _ in gate.list_columns],
            [[column(c) for _, column in gate.list_columns] for c in cells],
        ))
        return 0
    # The committed baseline (to diff against, or for ``--update-baseline
    # --cell`` to merge into) is read before any cell runs: an unreadable
    # one is a usage error, not something to find out after the matrix.
    baseline = None
    if args.cell or not args.update_baseline:
        merging = args.update_baseline
        try:
            baseline = cr.load_baseline(gate, args.baseline)
        except FileNotFoundError:
            if not merging:
                print(f"error: no baseline at {args.baseline}; create one "
                      f"with '{title} --update-baseline'", file=sys.stderr)
                return 2
        except (ValueError, OSError) as exc:
            what = "merge into" if merging else "load baseline"
            print(f"error: cannot {what} {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
    progress = None if args.quiet else lambda msg: print(f"  {msg}")
    if progress:
        print(f"{title}: {len(cells)} cell(s), jobs={jobs}")
    try:
        current = cr.run_gate(gate, cells, extras=extras, progress=progress,
                              jobs=jobs, cache=cache, telemetry=telemetry)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _finish_telemetry(args, telemetry, cache, progress)
    records = current["cells"]
    if gate.chart and progress:
        print(gate.chart(records))
        print()
    if args.out:
        cr.save_baseline(current, args.out)
        if progress:
            print(f"wrote current results to {args.out}")

    if args.update_baseline:
        payload = current
        if args.cell:
            # Subset update: merge into the existing baseline if present and
            # re-evaluate, in the gate's order, every trend the merged cells
            # cover -- one reading a fresh and a kept cell moves too, so the
            # file is what a full update writes.
            payload = baseline or dict(current, cells={}, trends=[])
            payload["cells"].update(records)
            payload["trends"] = [
                cr.evaluate_trend(t, payload["cells"]) for t in gate.trends
                if all(c in payload["cells"] for c in t.cells)
            ]
        cr.save_baseline(payload, args.baseline)
        print(f"baseline updated: {args.baseline} "
              f"({len(payload['cells'])} cells, {len(payload['trends'])} trends)")
        bad_trends = [t for t in payload["trends"] if not t["ok"]]
        for t in bad_trends:
            print(f"warning: {gate.trend_noun} trend VIOLATED in new "
                  f"baseline: {t['id']}: {t['description']}", file=sys.stderr)
        if bad_trends:
            print("refusing a green exit: fix the model or the matrix before "
                  "committing this baseline", file=sys.stderr)
        return 1 if bad_trends else 0

    report = cr.compare(gate, current, baseline, rtol=rtol)
    print(cr.format_report(gate, report, title=f"{title} vs {args.baseline}"))
    return 0 if report.ok else 1


def cmd_bench_timings(args) -> int:
    """Print the per-cell executor telemetry table."""
    from .bench.timings import format_timings, load_timings

    try:
        payload = load_timings(args.timings)
    except FileNotFoundError:
        print(f"error: no timings artifact at {args.timings}; run a "
              "matrix gate (repro regress/scale) first",
              file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: cannot load timings {args.timings}: {exc}",
              file=sys.stderr)
        return 2
    if args.top is not None and args.top < 1:
        print(f"error: --top must be a positive integer (got {args.top})",
              file=sys.stderr)
        return 2
    print(format_timings(payload, top=args.top))
    return 0


def _add_gate_parser(sub, gate) -> None:
    """One gate sub-parser, its options derived from the table row."""
    g = sub.add_parser(gate.family, help=gate.help)
    g.set_defaults(gate=gate)
    g.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run instead of "
                        "comparing (review the diff before committing)")
    g.add_argument("--baseline", default=gate.baseline, metavar="PATH",
                   help="baseline artifact to compare against / update")
    g.add_argument("--rtol", type=float, default=None, metavar="FRAC",
                   help="relative tolerance band for "
                        f"{'/'.join(gate.banded_metrics)} (default: the "
                        "baseline's recorded rtol)")
    g.add_argument("--cell", action="append", default=None,
                   metavar=gate.cell_grammar,
                   help="restrict to matching cells (repeatable, globs "
                        f"allowed), e.g. {gate.cell_example}")
    g.add_argument("--list-cells", action="store_true",
                   help="list the cells the --cell specs select (or the "
                        "whole matrix) without running anything")
    for flag, kwargs in gate.options:
        g.add_argument(flag, **kwargs)
    g.add_argument("--out", default=None, metavar="PATH",
                   help="also write this run's results as JSON (CI artifact)")
    g.add_argument("--quiet", action="store_true",
                   help="suppress per-cell progress lines"
                        + (" and the chart" if gate.chart else ""))
    _add_executor_args(g)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'I/O Analysis and Optimization for an AMR "
        "Cosmology Application' (CLUSTER 2002)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (data volumes)")

    f = sub.add_parser("figure", help="run one figure's experiments")
    f.add_argument("name", choices=sorted(FIGURE_TITLES))
    f.add_argument("--problem", default=None,
                   help="workload (default: the figure's own, see "
                        "'repro regress --list-cells')")
    f.add_argument("--procs", type=int, default=None,
                   help="single processor count (default: the figure's set)")
    f.add_argument("--json", default=None, metavar="PATH",
                   help="also export the series as JSON for plotting")

    a = sub.add_parser("analyze", help="trace a dump and print the report")
    a.add_argument("--problem", default="AMR32")
    _add_scenario_args(a)
    a.add_argument("--procs", type=int, default=8)
    a.add_argument("--strategy", choices=sorted(registry.names()), default="mpi-io")
    a.add_argument("--trace", default=None, metavar="PATH",
                   help="analyze a saved trace instead of running a dump")
    a.add_argument("--save-trace", default=None, metavar="PATH",
                   help="also export the recorded trace as JSON")
    a.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient I/O faults up to N times")

    i = sub.add_parser(
        "insights", help="diagnose a saved trace (Drishti-style rules)"
    )
    i.add_argument("trace", metavar="TRACE.json",
                   help="trace file from 'repro analyze --save-trace'")
    i.add_argument("--procs", type=int, default=0,
                   help="processor count of the traced run (sharpens rules)")
    i.add_argument("--stripe", type=int, default=1 << 20,
                   help="file-system stripe size in bytes (default 1 MiB)")
    i.add_argument("--strategy", choices=sorted(registry.names()), default=None,
                   help="strategy that produced the trace, if known")
    i.add_argument("--json", action="store_true",
                   help="emit the diagnosis as JSON")
    i.add_argument("--issues", action="store_true",
                   help="hide OK findings, show only issues")
    i.add_argument("--color", choices=["auto", "always", "never"],
                   default="auto")
    i.add_argument("--check", action="store_true",
                   help="exit 1 if any HIGH finding is present")

    t = sub.add_parser(
        "tune", help="closed-loop auto-tune: diagnose, retune, re-run"
    )
    t.add_argument("--problem", default="AMR32")
    _add_scenario_args(t)
    t.add_argument("--procs", type=int, default=8)
    t.add_argument("--strategy", choices=sorted(registry.names()), default="hdf4",
                   help="baseline strategy to start from (default hdf4)")
    t.add_argument("--machine", choices=sorted(PRESETS), default="origin2000")
    t.add_argument("--rounds", type=int, default=3,
                   help="maximum retune rounds")
    t.add_argument("--out", default=None, metavar="PATH",
                   help="write the tuning report as JSON (BENCH artifact)")
    t.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient I/O faults up to N times")

    tb = sub.add_parser(
        "table", help="run each strategy once and print the results table"
    )
    tb.add_argument("--problem", default="AMR32")
    tb.add_argument("--procs", type=int, default=8)
    tb.add_argument("--machine", choices=sorted(PRESETS), default="origin2000")
    tb.add_argument("--retries", type=int, default=0, metavar="N",
                    help="retry transient I/O faults up to N times")
    tb.add_argument("--inject", default=None,
                    metavar="OP[:MODE[:PATH[:AFTER]]]",
                    help="arm one injected fault before each strategy's run "
                         "(recoveries show in the 'recov' column)")

    sub.add_parser(
        "strategies",
        help="list registered I/O strategy compositions",
    )

    sn = sub.add_parser(
        "scenarios",
        help="list registered workload scenarios (--check lints them)",
    )
    sn.add_argument("--check", action="store_true",
                    help="validate + build every registered scenario "
                         "(capped resolution); exit 1 on any failure")

    b = sub.add_parser("bench", help="executor utilities: per-cell timings")
    bsub = b.add_subparsers(dest="bench_command", required=True)
    bt = bsub.add_parser(
        "timings",
        help="print the per-cell telemetry table from BENCH_timings.json",
    )
    bt.add_argument("--timings", default="BENCH_timings.json", metavar="PATH",
                    help="telemetry artifact to read "
                         "(default BENCH_timings.json)")
    bt.add_argument("--top", type=int, default=None, metavar="N",
                    help="show only the N slowest cells across all families")
    for gate in GATES.values():
        _add_gate_parser(sub, gate)

    s = sub.add_parser("simulate", help="run the full ENZO flow")
    s.add_argument("--problem", default="AMR32")
    _add_scenario_args(s)
    s.add_argument("--procs", type=int, default=8)
    s.add_argument("--cycles", type=int, default=None,
                   help="evolution cycles (default: the scenario's own "
                        "cycle count, or 2 for plain --problem runs)")
    s.add_argument("--strategy", choices=sorted(registry.names()), default="mpi-io")
    s.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry transient I/O faults up to N times")
    s.add_argument("--inject", default=None,
                   metavar="OP[:MODE[:PATH[:AFTER]]]",
                   help="arm one injected fault before the run, e.g. "
                        "'write:torn' or 'write:oneshot:run:3'")

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "table1": cmd_table1,
        "figure": cmd_figure,
        "analyze": cmd_analyze,
        "insights": cmd_insights,
        "tune": cmd_tune,
        "simulate": cmd_simulate,
        "table": cmd_table,
        "strategies": cmd_strategies,
        "scenarios": cmd_scenarios,
        "bench": cmd_bench_timings,
    }.get(args.command)
    try:
        if hasattr(args, "gate"):  # a row of the gate table
            return _cmd_gate(args.gate, args)
        return handler(args)
    except (_UsageError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RankFailedError as err:
        # A simulated rank raised: name the command, the rank and the failed
        # operation (the rank's own exception) on one line, not a traceback.
        cause = err.__cause__ or err
        print(f"error: repro {args.command}: simulation failed on rank "
              f"{err.rank}: {cause}", file=sys.stderr)
        if isinstance(cause, InjectedIOError):
            print("hint: transient faults can be absorbed with --retries N",
                  file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the consumer (e.g. `| head`) closed the pipe: stop quietly with
        # the conventional 128+SIGPIPE status instead of a traceback
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
