"""Span tracer: attributes host time and simulated time to ``repro``'s layers.

Everything here is done from the benchmark's side, the way
``core.trace.trace_filesystem`` wraps a ``FileSystem``: :meth:`Tracer.install`
replaces the layers' public entry points (``TARGETS``) with recording
wrappers and :meth:`Tracer.uninstall` puts every original back.  Nothing
under ``src/`` knows the tracer exists, and end-to-end metrics are never
taken while it is installed.

**Host self-time rule.**  The engine admits exactly one rank thread at a
time, so wrapper entries and exits -- *events* -- are totally ordered even
though they happen on many threads.  The wall between two consecutive
events belongs to the thread that ran in between and is charged to the
layer of its innermost open span.  The one exception is the wall between a
rank entering ``schedule_point``/``block`` and the next rank leaving one
(or starting): no rank was running, so it is the engine's thread hand-off,
charged to ``sim`` and counted in ``sim.handoff_host_s``.  Every instant is
charged exactly once, so the layers' host self-times sum to the traced wall.

**Sim self-time rule.**  A span's simulated duration is the rank's
virtual-clock delta between its entry and exit, minus its children's.  One
refinement: a ``FileSystem`` request returns its completion time and the
*caller* advances the clock to it, so the advance seen at the rank's next
event is credited to ``pfs`` up to that completion time.  Per layer the
deltas of one rank sum to its final clock; :attr:`Tracer.sim` adds up each
job's critical rank (largest final clock), where the layers sum to the
job's makespan and the ``sim`` layer's share is time spent blocked on other
ranks.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

_COLLECTIVES = (
    "barrier", "bcast", "gather", "gatherv", "scatter", "scatterv",
    "allgather", "alltoall", "alltoallv", "reduce", "allreduce", "exscan",
)
_BATCHED = (
    "barrier", "bcast", "gather", "scatter", "allgather", "alltoall",
    "particle_exchange", "reduce",
)
_FS_OPS = (
    "read", "write", "read_list", "write_list", "create", "open", "delete",
    "notify_recovery",
)

#: (layer, module, class or None, names or "*" for every public function /
#: method defined there).  ``Proc.schedule_point``/``block`` and
#: ``run_spmd`` get dedicated wrappers below.
TARGETS = (
    ("topology", "repro.topology.network", "Network", ("transfer",)),
    ("mpi", "repro.mpi.comm", "Comm",
     ("send", "recv", "recv_with_status", "sendrecv", "split", "dup")),
    ("mpi", "repro.mpi.collectives", None, _COLLECTIVES),
    ("mpi", "repro.mpi.batch", None, _BATCHED),
    ("mpi", "repro.mpi.request", None, ("isend", "irecv", "waitall")),
    ("mpiio", "repro.mpiio.file", "File", "*"),
    ("pfs", "repro.pfs.base", "FileSystem", _FS_OPS),
    ("hdf4", "repro.hdf4.sd", "SDFile", "*"),
    ("hdf4", "repro.hdf4.sd", "SDS", ("write", "read")),
    ("hdf5", "repro.hdf5.file", "H5File", "*"),
    ("hdf5", "repro.hdf5.file", "H5Dataset",
     ("write", "read", "write_attr", "close")),
    ("iostack", "repro.iostack.formats", "HDF4SDFormat", "*"),
    ("iostack", "repro.iostack.formats", "RawSharedFormat", "*"),
    ("iostack", "repro.iostack.formats", "HDF5Format", "*"),
    ("iostack", "repro.iostack.formats", "_SDSession", "*"),
    ("iostack", "repro.iostack.formats", "_RawSession", "*"),
    ("iostack", "repro.iostack.formats", "_H5Session", "*"),
    ("iostack", "repro.iostack.formats", None,
     ("write_grid_sd", "write_grid_sd_batched", "read_grid_sd")),
    ("iostack", "repro.iostack.scda", "ScdaFormat", "*"),
    ("iostack", "repro.iostack.scda", "_ScdaSession", "*"),
    ("iostack", "repro.iostack.scda", None, ("crc32_combine",)),
    ("iostack", "repro.iostack.transports", "FunnelTransport", "*"),
    ("iostack", "repro.iostack.transports", "CollectiveTransport", "*"),
    ("iostack", "repro.iostack.transports", "IndependentTransport", "*"),
    ("iostack", "repro.iostack.transports", None,
     ("redistribute_particles", "redistribute_grid_particles")),
    ("iostack", "repro.iostack.layouts", "SharedFileLayoutPlanner", ("plan",)),
    ("iostack", "repro.iostack.layouts", "FilePerGridLayoutPlanner", ("plan",)),
    ("enzo", "repro.enzo.io_base", "ComposedStrategy", "*"),
    ("enzo", "repro.enzo.io_base", "IOStrategy",
     ("write_meta_sidecar", "read_meta_sidecar", "write_manifest",
      "verify_manifest")),
    ("enzo", "repro.enzo.io_base", "PendingDump", ("complete",)),
    ("enzo", "repro.enzo.state", "RankState", ("from_hierarchy", "collect")),
    ("enzo", "repro.enzo.simulation", "EnzoSimulation",
     ("run", "restart", "resume")),
    ("enzo", "repro.enzo.sort", None, ("parallel_sort_by_id",)),
    ("enzo", "repro.enzo.plotfile", None, ("write_plotfile",)),
    ("enzo", "repro.bench.scale", None, ("build_scale_states",)),
    ("amr", "repro.amr.hierarchy", "GridHierarchy", ("copy",)),
    ("amr", "repro.amr.solver", None, ("evolve_hierarchy",)),
    ("amr", "repro.amr.refinement", None, ("refine_hierarchy",)),
    ("amr", "repro.amr.initial_conditions", None, ("make_initial_conditions",)),
    ("amr", "repro.bench.workloads", None,
     ("build_workload", "build_initial_workload", "build_scale_workload")),
    ("aio", "repro.aio.core", "ProgressEngine", "*"),
    ("aio", "repro.aio.core", "AioRequest", ("test", "wait")),
    ("aio", "repro.aio.core", None, ("drain_all",)),
    ("resilience", "repro.resilience.manifest", None,
     ("checksum_bytes", "entry_for_bytes", "entry_for_segments")),
    ("resilience", "repro.resilience.manifest", "CheckpointManifest", "*"),
    ("core", "repro.core.trace", "IOTrace", ("digest",)),
)

# Frame slots (a frame is a list, mutated in place on the hot path).
_LAYER, _NAME, _ID, _PARENT, _HOST0, _SIM0, _HOST, _SIM, _NBYTES = range(9)

_STARTUP = object()  # run_spmd called, no rank has started yet


class _Ctx:
    """Per-thread state: the open-span stack and the rank's sim ledger."""

    __slots__ = ("stack", "proc", "rank", "sim_last", "sim_layers",
                 "pending", "fresh", "phases")

    def __init__(self, proc=None):
        self.stack: list = []
        self.proc = proc
        self.rank = proc.rank if proc is not None else -1
        self.sim_last = proc.clock if proc is not None else 0.0
        self.sim_layers: dict = defaultdict(float)
        self.pending = None  # completion time of the last FileSystem request
        self.fresh = False  # pending was set inside the span now closing
        self.phases: dict = defaultdict(float)


def _nbytes(buf) -> int:
    return memoryview(buf).nbytes


class Tracer:
    def __init__(self):
        #: finished spans: (id, parent, layer, name, cell, job, rank,
        #: host_start, host_end, sim_start, sim_end, nbytes)
        self.spans: list[tuple] = []
        self.host: dict = defaultdict(float)  # layer -> host self seconds
        self.sim: dict = defaultdict(float)  # layer -> sim self s, critical ranks
        self.calls: dict = defaultdict(int)  # layer -> boundary calls
        #: (layer, name) -> [calls, host self seconds]
        self.by_name: dict = defaultdict(lambda: [0, 0.0])
        self.count: dict = defaultdict(float)  # named counters
        self.phases: dict = defaultdict(float)  # IOStats phase -> sim seconds
        self.busiest = (0.0, 0.0)  # (device busy sim s, utilisation) of a job
        self.sim_residual = 0.0  # max |sum of layers - makespan| over jobs
        self.filesystems: dict = {}  # id -> FileSystem seen by a request
        self.cell = ""
        self.job = 0
        self._next_id = 1
        self._last = 0.0
        self._yielder = None
        self._tls = threading.local()
        self._patches: list[tuple] = []
        self._rank_ctxs: dict = {}

    # -- events ---------------------------------------------------------------

    def _ctx(self) -> _Ctx:
        # install() gives the installing thread its context and run_spmd's
        # wrapper gives every rank thread one before its first event.
        return self._tls.ctx

    def _frame(self, layer, name, parent, host0, sim0) -> list:
        sid = self._next_id
        self._next_id = sid + 1
        return [layer, name, sid, parent, host0, sim0, 0.0, 0.0, 0]

    def _charge_sim(self, ctx: _Ctx, frame: list) -> float:
        clock = ctx.proc.clock
        delta = clock - ctx.sim_last
        pending = ctx.pending
        if pending is not None:
            if ctx.fresh:
                # The request's own exit; the caller advances the clock next.
                ctx.fresh = False
            else:
                ctx.pending = None
                share = min(delta, max(0.0, pending - ctx.sim_last))
                ctx.sim_layers["pfs"] += share
                delta -= share
        if delta:
            frame[_SIM] += delta
        ctx.sim_last = clock
        return clock

    def _enter(self, ctx: _Ctx, layer: str, name: str) -> list:
        now = perf_counter()
        top = ctx.stack[-1]
        top[_HOST] += now - self._last
        self._last = now
        clock = self._charge_sim(ctx, top) if ctx.proc is not None else 0.0
        frame = self._frame(layer, name, top[_ID], now, clock)
        ctx.stack.append(frame)
        return frame

    def _exit(self, ctx: _Ctx, frame: list) -> None:
        now = perf_counter()
        frame[_HOST] += now - self._last
        self._last = now
        clock = self._charge_sim(ctx, frame) if ctx.proc is not None else 0.0
        ctx.stack.pop()
        layer, name = frame[_LAYER], frame[_NAME]
        self.host[layer] += frame[_HOST]
        self.calls[layer] += 1
        rec = self.by_name[layer, name]
        rec[0] += 1
        rec[1] += frame[_HOST]
        ctx.sim_layers[layer] += frame[_SIM]
        self.spans.append((
            frame[_ID], frame[_PARENT], layer, name, self.cell, self.job,
            ctx.rank, frame[_HOST0], now, frame[_SIM0], clock, frame[_NBYTES],
        ))

    def _resume(self, ctx: _Ctx) -> None:
        """A rank got the baton: close the gap since the last event."""
        now = perf_counter()
        gap = now - self._last
        self._last = now
        self.host["sim"] += gap
        if self._yielder is not _STARTUP:
            self.count["sim.handoff_host_s"] += gap
        self._yielder = None

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, hook=None):
        enter, exit_, get_ctx = self._enter, self._exit, self._ctx

        if hook is None:
            def wrapper(*args, **kwargs):
                ctx = get_ctx()
                frame = enter(ctx, layer, name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(ctx, frame)
        else:
            def wrapper(*args, **kwargs):
                ctx = get_ctx()
                frame = enter(ctx, layer, name)
                try:
                    ret = fn(*args, **kwargs)
                    hook(ctx, frame, args, kwargs, ret)
                    return ret
                finally:
                    exit_(ctx, frame)

        return functools.wraps(fn)(wrapper)

    def _wrap_yield(self, name: str, fn):
        """``Proc.schedule_point`` / ``Proc.block``: where batons change hands."""
        enter, exit_, get_ctx = self._enter, self._exit, self._ctx

        def wrapper(proc):
            ctx = get_ctx()
            frame = enter(ctx, "sim", name)
            engine = proc.engine
            self._yielder = (ctx, engine.context_switches)
            try:
                return fn(proc)
            finally:
                y = self._yielder
                if (y is not None and y is not _STARTUP and y[0] is ctx
                        and y[1] == engine.context_switches):
                    self._yielder = None  # nobody else ran: scheduler bookkeeping
                else:
                    self._resume(ctx)
                exit_(ctx, frame)

        return functools.wraps(fn)(wrapper)

    def _wrap_run_spmd(self, fn):
        from repro.bench import device_utilization

        def rank_main(program, job_id):
            def main(comm, *args, **kwargs):
                ctx = self._tls.ctx = _Ctx(comm.proc)
                self._resume(ctx)
                base = self._frame("sim", "rank", job_id, self._last, 0.0)
                ctx.stack.append(base)
                self._rank_ctxs[ctx.rank] = ctx
                try:
                    return program(comm, *args, **kwargs)
                finally:
                    self._exit(ctx, base)
            return main

        def wrapper(machine, program, **kwargs):
            ctx = self._ctx()
            frame = self._enter(ctx, "sim", "run_spmd")
            self.job += 1
            self._rank_ctxs = {}
            self._yielder = _STARTUP
            try:
                res = fn(machine, rank_main(program, frame[_ID]), **kwargs)
            finally:
                self._yielder = None
                self._exit(ctx, frame)
            self._close_job(machine, res, device_utilization)
            return res

        return functools.wraps(fn)(wrapper)

    def _close_job(self, machine, res, device_utilization) -> None:
        count = self.count
        count["sim.context_switches"] += res.engine.context_switches
        count["sim.threads_started"] += len(res.rank_times)
        critical = max(range(len(res.rank_times)), key=res.rank_times.__getitem__)
        layers = self._rank_ctxs[critical].sim_layers
        for layer, seconds in layers.items():
            self.sim[layer] += seconds
        self.sim_residual = max(self.sim_residual,
                                abs(sum(layers.values()) - res.elapsed))
        # IOStats phases: max over ranks within the job, summed over jobs.
        names = {n for c in self._rank_ctxs.values() for n in c.phases}
        for name in names:
            self.phases[name] += max(c.phases[name]
                                     for c in self._rank_ctxs.values())
        fs = machine.fs
        if fs is not None and res.elapsed > 0:
            for device, _requests, busy, _util in device_utilization(
                    machine, res.elapsed):
                if device.startswith(fs.name) and float(busy) > self.busiest[0]:
                    self.busiest = (float(busy), float(busy) / res.elapsed)

    # -- per-target hooks -----------------------------------------------------

    def _hooks(self) -> dict:
        count = self.count

        def saw(fs):
            self.filesystems[id(fs)] = fs

        def fs_read(ctx, frame, args, kwargs, ret):
            saw(args[0])
            count["pfs.read_requests"] += 1
            n = args[3] if len(args) > 3 else sum(s[1] for s in args[2])
            count["pfs.bytes_read"] += n
            frame[_NBYTES] = n
            ctx.pending, ctx.fresh = ret[1], True

        def fs_write(ctx, frame, args, kwargs, ret):
            saw(args[0])
            count["pfs.write_requests"] += 1
            n = _nbytes(args[3])
            count["pfs.bytes_written"] += n
            frame[_NBYTES] = n
            ctx.pending, ctx.fresh = ret, True

        def fs_meta(ctx, frame, args, kwargs, ret):
            saw(args[0])
            count["pfs.metadata_ops"] += 1
            if frame[_NAME] != "FileSystem.delete":
                count["pfs.opens"] += 1
            ctx.pending, ctx.fresh = ret, True

        def fs_recovery(ctx, frame, args, kwargs, ret):
            count["pfs.recoveries"] += 1

        def transfer(ctx, frame, args, kwargs, ret):
            n = args[4]
            count["topology.net_transfers"] += 1
            count["topology.net_bytes"] += n
            frame[_NBYTES] = n
            if ctx.stack[-2][_LAYER] == "mpi":
                count["mpi.p2p_msgs"] += 1
                count["mpi.p2p_bytes"] += n

        def collective(ctx, frame, args, kwargs, ret):
            if ctx.stack[-2][_LAYER] != "mpi":
                count["mpi.collective_calls"] += 1

        def batched(ctx, frame, args, kwargs, ret):
            count["mpi.batched_collective_calls"] += 1

        def file_data(ctx, frame, args, kwargs, ret):
            n = ret if isinstance(ret, int) else getattr(ret, "nbytes", None)
            if n is None:
                n = len(ret)
            frame[_NBYTES] = n
            if ctx.stack[-2][_LAYER] != "mpiio":
                kind = "collective" if frame[_NAME].endswith("_all") else "independent"
                count[f"mpiio.{kind}_calls"] += 1
                count["mpiio.payload_bytes"] += n

        def checksum(ctx, frame, args, kwargs, ret):
            n = sum(_nbytes(c) for c in args)
            count["resilience.checksum_bytes"] += n
            frame[_NBYTES] = n

        def io_stats(ctx, frame, args, kwargs, ret):
            stats = ret[1] if isinstance(ret, tuple) else ret
            for phase, seconds in stats.phases.items():
                ctx.phases[phase] += seconds
            if stats.operation == "write":
                count["enzo.payload_bytes"] += stats.bytes_moved
                frame[_NBYTES] = stats.bytes_moved

        hooks = {
            ("pfs", "FileSystem.read"): fs_read,
            ("pfs", "FileSystem.read_list"): fs_read,
            ("pfs", "FileSystem.write"): fs_write,
            ("pfs", "FileSystem.write_list"): fs_write,
            ("pfs", "FileSystem.create"): fs_meta,
            ("pfs", "FileSystem.open"): fs_meta,
            ("pfs", "FileSystem.delete"): fs_meta,
            ("pfs", "FileSystem.notify_recovery"): fs_recovery,
            ("topology", "Network.transfer"): transfer,
            ("resilience", "manifest.checksum_bytes"): checksum,
            ("enzo", "ComposedStrategy.write_checkpoint"): io_stats,
            ("enzo", "ComposedStrategy.read_checkpoint"): io_stats,
            ("enzo", "ComposedStrategy.read_initial"): io_stats,
            ("enzo", "PendingDump.complete"): io_stats,
        }
        hooks.update({("mpi", f"collectives.{n}"): collective for n in _COLLECTIVES})
        hooks.update({("mpi", f"batch.{n}"): batched for n in _BATCHED})
        hooks.update({
            ("mpiio", f"File.{n}"): file_data
            for n in ("read_at", "write_at", "read", "write", "read_shared",
                      "write_shared", "read_at_all", "write_at_all",
                      "read_all", "write_all")
        })
        return hooks

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patched(self, owner, attr: str) -> bool:
        return any(o is owner and a == attr for o, a, _ in self._patches)

    def _patch_function(self, module, attr: str, make) -> None:
        """Replace a module-level function wherever it was imported by name."""
        fn = getattr(module, attr)
        new = make(fn)
        for mod in list(sys.modules.values()):
            names = getattr(mod, "__dict__", None)
            if names is None:
                continue
            for key, value in list(names.items()):
                if value is fn:
                    self._patch(mod, key, new)

    def _patch_method(self, cls, attr: str, make) -> None:
        """Replace a method on ``cls`` and on every subclass overriding it."""
        todo, seen = [cls], set()
        while todo:
            c = todo.pop()
            if c in seen:
                continue
            seen.add(c)
            todo.extend(c.__subclasses__())
            raw = c.__dict__.get(attr)
            # An override already wrapped through its base class keeps the
            # base's label (e.g. _ScdaSession.close under _RawSession.close).
            if raw is None or self._patched(c, attr):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(make(raw.__func__))
            else:
                new = make(raw)
            self._patch(c, attr, new)

    def install(self) -> "Tracer":
        hooks = self._hooks()
        for layer, modname, clsname, names in TARGETS:
            module = importlib.import_module(modname)
            short = modname.rsplit(".", 1)[1]
            if clsname is None:
                for attr in names:
                    label = f"{short}.{attr}"
                    self._patch_function(
                        module, attr,
                        lambda fn, layer=layer, label=label: self._wrap(
                            layer, label, fn, hooks.get((layer, label))),
                    )
                continue
            cls = getattr(module, clsname)
            if names == "*":
                names = [
                    n for n, v in cls.__dict__.items()
                    if not n.startswith("_")
                    and (callable(v) or isinstance(v, (classmethod, staticmethod)))
                    and not isinstance(v, type)
                ]
            for attr in names:
                # Spans and hooks are named after the class in TARGETS, so a
                # subclass override lands in the same bucket.
                self._patch_method(
                    cls, attr,
                    lambda fn, layer=layer, label=f"{clsname}.{attr}":
                        self._wrap(layer, label, fn, hooks.get((layer, label))),
                )
        engine = importlib.import_module("repro.sim.engine")
        for attr in ("schedule_point", "block"):
            self._patch_method(
                engine.Proc, attr,
                lambda fn, attr=attr: self._wrap_yield(f"Proc.{attr}", fn),
            )
        runner = importlib.import_module("repro.mpi.runner")
        self._patch_function(runner, "run_spmd", self._wrap_run_spmd)
        ctx = self._tls.ctx = _Ctx()
        self._last = perf_counter()
        ctx.stack.append(self._frame("bench", "harness", 0, self._last, 0.0))
        return self

    def uninstall(self) -> None:
        ctx = self._ctx()
        while ctx.stack:
            self._exit(ctx, ctx.stack[-1])
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._patches)

    @contextmanager
    def cell_span(self, cell_id: str):
        """Root span of one cell; every span inside carries its id."""
        ctx = self._ctx()
        self.cell = cell_id
        frame = self._enter(ctx, "bench", cell_id)
        try:
            yield
        finally:
            self._exit(ctx, frame)
            self.cell = ""

    def dump_spans(self, path: str) -> None:
        """Write the in-memory spans, one JSON array per line."""
        import json

        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span))
                f.write("\n")
