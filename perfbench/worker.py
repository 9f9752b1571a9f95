"""One measurement process of perfbench (started by ``run.py``, never by hand).

A worker is a fresh interpreter pinned to one CPU.  It sets the workload up
(import, cold hierarchy builds, warm-up passes), times passes for its share
of ``--seconds``, optionally runs the correctness pass and -- with
``--trace 1`` -- the traced pass and the off-path probes, then prints one
JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The in-run layers (``src/repro`` subpackages) that get the generic
#: calls / host self-time / simulated self-time triple.
LAYERS = (
    "sim", "topology", "mpi", "mpiio", "pfs", "hdf4", "hdf5", "iostack",
    "enzo", "amr", "aio", "resilience",
)
#: ``IOStats.phases`` keys reported as ``enzo.phase.<key>_sim_s``.
PHASES = ("top_fields", "top_particles", "subgrids", "top_gather",
          "top_write", "drain_wait")


def calibration() -> float:
    """A fixed pure-Python + numpy loop: the box's speed in seconds, so
    host numbers from two machines can be compared as ratios."""
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    a = np.arange(1 << 16, dtype=np.float64)
    for _ in range(300):
        np.multiply(a, 1.0000001, out=a)
        np.sqrt(a, out=a)
    assert total > 0 and a[-1] > 0
    return time.perf_counter() - t0


def stamp() -> dict:
    """Where and on what these numbers were taken."""
    import subprocess

    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "commit": commit,
        "calibration_s": calibration(),
    }


class Run:
    """What one worker accumulates: passes, records, checks, failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.checks: list[dict] = []
        self.passes: list[float] = []
        self.records: dict = {}
        self.deterministic = True

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def run_pass(self, W, workload, inputs, **kw) -> float | None:
        """One pass; records its cells as attempted, a raise as a failure."""
        self.attempted += len(workload.cells)
        try:
            records, wall = W.run_pass(workload, inputs, **kw)
        except Exception:
            self.failures.append(traceback.format_exc(limit=8))
            return None
        # Sim numbers and counts are functions of (commit, seed) alone.
        if self.records and records != self.records:
            self.deterministic = False
        self.records = records
        return wall


def timed_cell(W, spec, inputs) -> float:
    gc.collect()
    t0 = time.perf_counter()
    W.run_one(spec, inputs)
    return time.perf_counter() - t0


def probes(W, workload, inputs, run: Run, tracer) -> dict:
    """Off-path layers: one probe each on the traced pass's artefacts."""
    from repro.bench import CellCache, run_cells, run_traced_experiment
    from repro.bench.baselines import Cell, cell_by_id
    from repro.bench.cellcache import source_tree_digest
    from repro.insights import Severity, diagnose
    from repro.iostack import registry
    from repro.scenarios import load_param_file
    from repro.topology.presets import PRESETS

    out = {}
    # insights: diagnose the traced fig6:hdf4:8 IOTrace.
    cell = cell_by_id("fig6:hdf4:8")
    machine = PRESETS[cell.machine](nprocs=cell.nprocs)
    _result, trace = run_traced_experiment(
        machine, registry.create(cell.strategy),
        W.build_workload(cell.problem), nprocs=cell.nprocs, do_read=False,
    )
    t0 = time.perf_counter()
    diagnosis = diagnose(trace, nprocs=cell.nprocs, strategy=cell.strategy)
    out["insights.diagnose_host_s"] = time.perf_counter() - t0
    out["insights.high_findings"] = diagnosis.count(Severity.HIGH)
    # scenarios: parse the two verbatim production parameter files.
    scen_dir = os.path.join(ROOT, "examples", "scenarios")
    t0 = time.perf_counter()
    for name in sorted(os.listdir(scen_dir)):
        load_param_file(os.path.join(scen_dir, name))
    out["scenarios.parse_host_s"] = time.perf_counter() - t0
    # bench: source-tree digest (cold) and a warm cache replay of the
    # workload's regress cells from a throw-away cache directory.
    source_tree_digest.cache_clear()
    t0 = time.perf_counter()
    digest = source_tree_digest()
    out["bench.tree_digest_host_s"] = time.perf_counter() - t0
    cells = [c for c in workload.cells if isinstance(c, Cell)]
    with tempfile.TemporaryDirectory(prefix=".cache-", dir=HERE) as tmp:
        cold = run_cells("regress", cells, cache=CellCache(tmp, tree_digest=digest))
        t0 = time.perf_counter()
        warm = run_cells("regress", cells, cache=CellCache(tmp, tree_digest=digest))
        out["bench.warm_replay_host_s"] = time.perf_counter() - t0
    run.check("warm-replay", warm == cold, "cache replay differs from live run")
    # core: the golden-digest machinery on the traced pass's own trace.
    out["core.trace_events"] = sum(
        r.get("trace_events", 0) for r in run.records.values())
    out["core.host_self_s"] = tracer.host.get("core", 0.0)
    return out


def layer_metrics(tracer, run: Run, extra: dict) -> dict:
    """Every ``per_layer`` metric of ``BENCHMARK.json``, by name."""
    from manifest import UNITS

    count, by_name = tracer.count, tracer.by_name
    m = dict(extra)
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.calls.get(layer, 0)
        m[f"{layer}.host_self_s"] = tracer.host.get(layer, 0.0)
        m[f"{layer}.sim_self_s"] = tracer.sim.get(layer, 0.0)
    for name in (
        "sim.context_switches", "sim.threads_started", "sim.handoff_host_s",
        "mpi.p2p_msgs", "mpi.p2p_bytes", "mpi.collective_calls",
        "mpi.batched_collective_calls", "mpiio.collective_calls",
        "mpiio.independent_calls", "mpiio.payload_bytes",
        "topology.net_transfers", "topology.net_bytes", "pfs.write_requests",
        "pfs.read_requests", "pfs.bytes_written", "pfs.bytes_read",
        "pfs.metadata_ops", "pfs.opens", "pfs.recoveries",
        "resilience.checksum_bytes",
    ):
        m[name] = count.get(name, 0)

    def calls(layer, name):
        return by_name[layer, name][0] if (layer, name) in by_name else 0

    def host(layer, *names):
        return sum(by_name[layer, n][1] for n in names if (layer, n) in by_name)

    switches = m["sim.context_switches"]
    m["sim.schedule_points"] = calls("sim", "Proc.schedule_point")
    m["sim.blocks"] = calls("sim", "Proc.block")
    attempts = m["sim.schedule_points"] + m["sim.blocks"]
    m["sim.switch_yield"] = switches / attempts if attempts else 0.0
    m["sim.host_us_per_switch"] = (
        m["sim.handoff_host_s"] / switches * 1e6 if switches else 0.0)
    m["pfs.files_created"] = sum(
        len(fs.store.listdir()) for fs in tracer.filesystems.values())
    writes = m["pfs.write_requests"]
    m["pfs.mean_write_kib"] = m["pfs.bytes_written"] / writes / 1024 if writes else 0.0
    payload = count.get("enzo.payload_bytes", 0)
    m["pfs.write_amplification"] = m["pfs.bytes_written"] / payload if payload else 0.0
    m["pfs.busiest_device_sim_s"], m["pfs.busiest_device_util"] = tracer.busiest
    m["iostack.scda_crc_combine_calls"] = calls("iostack", "scda.crc32_combine")
    m["iostack.scda_crc_combine_host_s"] = host("iostack", "scda.crc32_combine")
    m["amr.hierarchy_copies"] = calls("amr", "GridHierarchy.copy")
    m["amr.hierarchy_copy_host_s"] = host("amr", "GridHierarchy.copy")
    m["amr.solver_host_s"] = host(
        "amr", "solver.evolve_hierarchy", "refinement.refine_hierarchy")
    m["enzo.rankstate_build_host_s"] = host(
        "enzo", "RankState.from_hierarchy", "scale.build_scale_states")
    for phase in PHASES:
        m[f"enzo.phase.{phase}_sim_s"] = tracer.phases.get(phase, 0.0)
    m["resilience.checksum_host_s"] = host("resilience", "manifest.checksum_bytes")
    m["aio.requests_posted"] = calls("aio", "ProgressEngine.post")
    pairs = [r for r in run.records.values() if "speedup" in r]
    m["aio.sync_makespan_sim_s"] = sum(r["sync_makespan_s"] for r in pairs)
    m["aio.makespan_speedup"] = (
        statistics.mean(r["speedup"] for r in pairs) if pairs else 0.0)
    m["core.digest_mismatches"] = sum(
        1 for c in run.checks
        if c["check"].startswith("baseline:") and "trace_digest" in c["detail"])
    m["trace.spans"] = len(tracer.spans)
    for name, unit in UNITS.items():
        if unit in ("count", "bytes") and name in m:
            m[name] = int(m[name])
    return m


def code_size() -> dict:
    """ROADMAP aim 2's size ledger: source lines and public names."""
    import importlib
    import pkgutil

    import repro

    loc = names = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        names += len(getattr(module, "__all__", ()))
    names += len(getattr(repro, "__all__", ()))
    for dirpath, _dirs, files in os.walk(os.path.dirname(repro.__file__)):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    loc += sum(1 for _ in f)
    return {"code.src_loc": loc, "code.public_names": names}


def traced_metrics(W, workload, inputs, run: Run, timing: dict,
                   allowed: list[int], spans: str | None = None) -> dict:
    """The ``--trace 1`` part of a run: one traced pass, the unpinned probe
    and the off-path probes; returns every per-layer metric but the two
    the process reports at exit (``host.cpu_s``, ``host.calibration_s``)."""
    from tracer import Tracer

    gc.collect()
    tracer = Tracer().install()
    try:
        traced_wall = run.run_pass(
            W, workload, inputs, around=lambda spec: tracer.cell_span(spec.id))
    finally:
        tracer.uninstall()
    run.check("tracer-restored", tracer.restored(),
              "a patched attribute was not put back")
    run.check("sim-attribution", tracer.sim_residual < 1e-9,
              f"layers miss a job's makespan by {tracer.sim_residual}")
    # Hazard 1, measured: the workload's last cell with the pin lifted,
    # over the same cell pinned (a whole unpinned pass can take 14x).
    pinned = timed_cell(W, workload.cells[-1], inputs)
    os.sched_setaffinity(0, set(allowed))
    try:
        unpinned = timed_cell(W, workload.cells[-1], inputs)
    finally:
        os.sched_setaffinity(0, {allowed[-1]})
    median = statistics.median(run.passes)
    extra = probes(W, workload, inputs, run, tracer)
    extra.update(code_size())
    extra.update({
        "setup.import_s": timing["import_s"],
        "setup.build_s": timing["build_s"],
        "setup.warmup_s": timing["warmup_s"],
        "trace.overhead_ratio": (traced_wall or 0.0) / median,
        "sim.unpinned_wall_ratio": unpinned / pinned,
        "amr.build_host_s": inputs.build_s,
    })
    if spans:
        tracer.dump_spans(spans)
    return layer_metrics(tracer, run, extra)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--warmups", type=int, default=None,
                    help="untimed passes (default: the workload's own)")
    ap.add_argument("--check", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--t0", type=float, default=None,
                    help="time.monotonic() of the parent just before spawn")
    args = ap.parse_args(argv)
    t_start = args.t0 if args.t0 is not None else time.monotonic()

    # Hazard 1: the baton hand-off between rank threads costs 2-4x more
    # when the OS may place them on different CPUs.  One CPU, always.
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as W  # imports numpy and repro

    t_imported = time.monotonic()
    workload = W.WORKLOADS[args.workload]
    inputs = W.Inputs(args.seed)
    W.prepare(workload, inputs)
    t_built = time.monotonic()

    # Warm-up passes are untimed; with --check the first one is also the
    # correctness pass (it reads one checkpoint back), so checking costs a
    # run no extra pass.
    run = Run()
    warmups = workload.warmups if args.warmups is None else args.warmups
    for i in range(max(warmups, args.check)):
        verdicts = {} if args.check and i == 0 else None
        run.run_pass(W, workload, inputs, verdicts=verdicts)
        if verdicts is not None and not run.failures:
            for c in W.check_records(workload, run.records, args.seed, verdicts):
                run.check(c["check"], c["ok"], c["detail"])
    t_ready = time.monotonic()
    timing = {
        "setup_s": t_ready - t_start,
        "import_s": t_imported - t_start,
        "build_s": t_built - t_imported,
        "warmup_s": t_ready - t_built,
    }

    # Timed passes: until this worker's share of --seconds is used, rounded
    # to the nearest whole pass so a slow box does not stretch the run.
    spent = 0.0
    while not run.failures and (args.seconds > 0 or args.trace):
        wall = run.run_pass(W, workload, inputs)
        if wall is None:
            break
        run.passes.append(wall)
        spent += wall
        if spent + wall / 2 > args.seconds:
            break

    out = dict(timing)
    if args.trace and not run.failures:
        out["layers"] = traced_metrics(W, workload, inputs, run, timing,
                                       allowed, args.spans)
    run.check("deterministic-passes", run.deterministic,
              "a pass changed a simulated number or an exact count")
    if args.check:
        out["stamp"] = stamp()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update({
        "passes": run.passes,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "sums": W.sim_sums(run.records) if run.records else {},
        "records": run.records,
        "checks": run.checks,
        "attempted": run.attempted,
        "failures": run.failures,
    })
    if "layers" in out:
        out["layers"]["host.cpu_s"] = out["cpu_s"]
        out["layers"]["host.calibration_s"] = out["stamp"]["calibration_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
