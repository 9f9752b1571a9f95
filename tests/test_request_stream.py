"""The file system publishes its request stream; one ``run_job`` measures.

* differential: the pre-PR-20 ``trace_filesystem`` -- instance-level
  wrappers around the private ``_service_*`` hooks -- is kept here as an
  oracle, and a hypothesis-driven request sequence (faults armed) must
  give it and the subscription the same canonical events and digest;
* lifecycle of a subscription and of ``run_job``;
* ``repro figure`` and the regress driver cell kind reproduce committed
  ``BENCH_figures.json`` records, and a driver run's write time is one
  reduction (checkpoint plus plot-file time, max over ranks).
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.baselines import cell_by_id
from repro.bench.regression import run_cell
from repro.bench.runners import run_job
from repro.cli import main
from repro.core.trace import IOTrace, trace_filesystem
from repro.pfs import FileNotFound, FileSystem, InjectedIOError
from repro.topology.presets import PRESETS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(REPO_ROOT, "BENCH_figures.json")) as _f:
    COMMITTED = json.load(_f)["cells"]


# -- the oracle: trace_filesystem as it was before the publish point ----------


def oracle_trace_filesystem(fs) -> IOTrace:
    """Rebind the timing hooks on the *instance* and record inside them.

    Verbatim from the parent commit, except that recovery notices are
    taken from ``notify_recovery`` itself (the ``_service_recovery`` hook
    it used to forward to existed only to be wrapped, and is gone) and
    that the metadata hook is always wrapped, as ``trace_filesystem``
    always records metadata events.
    """
    trace = IOTrace()
    orig_read, orig_write = fs._service_read, fs._service_write
    orig_list, orig_meta = fs._service_list, fs._service_meta
    orig_notify = fs.notify_recovery
    in_list = False  # list-I/O may fall back to per-segment service hooks

    def traced_read(path, offset, nbytes, node, ready_time):
        done = orig_read(path, offset, nbytes, node, ready_time)
        if not in_list:
            trace.record(
                op="read", path=path, offset=offset, nbytes=nbytes,
                start=ready_time, end=done, node=node,
            )
        return done

    def traced_write(path, offset, nbytes, node, ready_time):
        done = orig_write(path, offset, nbytes, node, ready_time)
        if not in_list:
            trace.record(
                op="write", path=path, offset=offset, nbytes=nbytes,
                start=ready_time, end=done, node=node,
            )
        return done

    def traced_list(path, segments, node, ready_time, op):
        nonlocal in_list
        in_list = True
        try:
            done = orig_list(path, segments, node, ready_time, op)
        finally:
            in_list = False
        for off, n in segments:
            trace.record(
                op=op, path=path, offset=off, nbytes=n,
                start=ready_time, end=done, node=node,
            )
        return done

    def traced_meta(op, path, node, ready_time):
        done = orig_meta(op, path, node, ready_time)
        trace.record(
            op="meta", path=path, offset=0, nbytes=0,
            start=ready_time, end=done, node=node, kind=op,
        )
        return done

    def traced_notify(path, kind, *, node=0, time=0.0, attempt=0, nbytes=0):
        orig_notify(path, kind, node=node, time=time, attempt=attempt,
                    nbytes=nbytes)
        trace.record(
            op="recovery", path=path, offset=0, nbytes=nbytes,
            start=time, end=time, node=node, kind=kind, attempt=attempt,
        )

    fs._service_read = traced_read
    fs._service_write = traced_write
    fs._service_list = traced_list
    fs.notify_recovery = traced_notify
    fs._service_meta = traced_meta
    return trace


# -- the request sequence ------------------------------------------------------

PATHS = ("a", "b", "run.c")
_seg = st.tuples(st.integers(0, 300_000), st.integers(1, 70_000))
_where = st.fixed_dictionaries({
    "path": st.sampled_from(PATHS),
    "node": st.integers(0, 3),
    "gap": st.floats(0.0, 0.01),
})
_ops = st.one_of(
    st.tuples(st.just("write"), _where, _seg),
    st.tuples(st.just("read"), _where, _seg),
    st.tuples(st.just("write_list"), _where, st.lists(_seg, min_size=1, max_size=4)),
    st.tuples(st.just("read_list"), _where, st.lists(_seg, min_size=1, max_size=4)),
    st.tuples(st.just("create"), _where, st.none()),
    st.tuples(st.just("delete"), _where, st.none()),
    st.tuples(st.just("recovery"), _where,
              st.tuples(st.sampled_from(["retry", "recovered", "giveup"]),
                        st.integers(0, 3))),
)
_faults = st.lists(
    st.tuples(
        st.sampled_from([("write", "oneshot"), ("write", "persistent"),
                         ("write", "torn"), ("read", "oneshot"),
                         ("meta", "oneshot"), ("read", "persistent")]),
        st.sampled_from(("", "a", "run")),
        st.integers(0, 3),
    ),
    max_size=3,
)


def _drive(fs, ops) -> None:
    """Issue ``ops``; injected faults and missing files are part of it."""
    clock = 0.0
    for name, where, arg in ops:
        path, node = where["path"], where["node"]
        clock += where["gap"]
        try:
            if name == "write":
                clock = fs.write(path, arg[0], bytes(arg[1]), node=node,
                                 ready_time=clock)
            elif name == "read":
                _, clock = fs.read(path, arg[0], arg[1], node=node,
                                   ready_time=clock)
            elif name == "write_list":
                clock = fs.write_list(path, arg, bytes(sum(n for _, n in arg)),
                                      node=node, ready_time=clock)
            elif name == "read_list":
                _, clock = fs.read_list(path, arg, node=node, ready_time=clock)
            elif name == "create":
                clock = fs.create(path, node=node, ready_time=clock)
            elif name == "delete":
                clock = fs.delete(path, node=node, ready_time=clock)
            else:
                fs.notify_recovery(path, arg[0], node=node, time=clock,
                                   attempt=arg[1], nbytes=17)
        except (InjectedIOError, FileNotFound):
            pass


def _make_fs(kind: str):
    if kind == "base":  # list I/O through the per-segment fallback
        return FileSystem()
    return PRESETS[kind](4).fs


#: StripedServerFS (PVFS, server caches), LustreFS, LocalDiskFS, and the
#: zero-cost base class.
KINDS = ("chiba_city", "lustre", "chiba_city_local", "base")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(ops=st.lists(_ops, min_size=1, max_size=25), faults=_faults)
def test_subscription_records_the_hook_wrappers_stream(kind, ops, faults):
    fs = _make_fs(kind)
    for (op, mode), substring, after in faults:
        fs.inject_fault(op, substring, mode=mode, after=after)
    oracle = oracle_trace_filesystem(fs)
    with trace_filesystem(fs) as trace:
        _drive(fs, ops)
    assert trace.canonical_events() == oracle.canonical_events()
    assert trace.digest() == oracle.digest()


def test_the_sequence_reaches_every_event_kind():
    """The differential above is not vacuous: one fixed sequence yields
    data, per-segment list, meta and recovery events, and a torn write
    leaves no event."""
    fs = _make_fs("chiba_city_local")
    fs.inject_fault("write", "b", mode="torn")
    where = {"path": "a", "node": 1, "gap": 0.001}
    ops = [
        ("create", where, None),
        ("write", where, (0, 4096)),
        ("write_list", where, [(8192, 100), (20000, 50)]),
        ("read_list", where, [(0, 10), (8192, 10)]),
        ("read", where, (0, 64)),
        ("write", dict(where, path="b"), (0, 1000)),
        ("recovery", where, ("retry", 2)),
        ("delete", where, None),
    ]
    with trace_filesystem(fs) as trace:
        _drive(fs, ops)
    assert [(e.op, e.kind, e.nbytes) for e in trace.events] == [
        ("meta", "create", 0), ("write", "", 4096),
        ("write", "", 100), ("write", "", 50),
        ("read", "", 10), ("read", "", 10), ("read", "", 64),
        ("recovery", "retry", 17), ("meta", "delete", 0),
    ]
    lists = trace.events[2:6]
    assert lists[0].start == lists[1].start and lists[0].end == lists[1].end
    assert trace.events[-2].attempt == 2


# -- lifecycle ------------------------------------------------------------------


def _some_requests(fs):
    fs.create("f")
    fs.write("f", 0, b"x" * 100)
    fs.read_list("f", [(0, 10), (50, 10)])
    fs.notify_recovery("f", "retry", attempt=1)


def test_two_simultaneous_traces_see_the_same_stream():
    fs = _make_fs("lustre")
    with trace_filesystem(fs) as one:
        with trace_filesystem(fs) as two:
            _some_requests(fs)
    assert len(one) == 5
    assert one.canonical_events() == two.canonical_events()


def test_detach_twice_is_harmless_and_stops_recording():
    fs = FileSystem()
    trace = trace_filesystem(fs)
    _some_requests(fs)
    trace.detach()
    trace.detach()
    n = len(trace)
    _some_requests(fs)
    assert len(trace) == n == 5
    assert fs._observers == []
    IOTrace().detach()  # a hand-recorded trace has nothing to detach


def test_exception_inside_with_leaves_zero_observers():
    fs = FileSystem()
    fs.inject_fault("write", mode="persistent")
    with pytest.raises(InjectedIOError):
        with trace_filesystem(fs):
            fs.write("f", 0, b"data")
    assert fs._observers == []


def test_no_instance_attribute_shadows_a_hook():
    """Tracing must not rebind anything on the instance."""
    fs = _make_fs("chiba_city")
    before = dict(vars(fs))
    with trace_filesystem(fs):
        assert [k for k in vars(fs) if k not in before] == []
        assert not any(k.startswith("_service_") for k in vars(fs))


def _dump_program(comm):
    fs = comm.machine.fs
    node = comm.machine.node_of(comm.rank)
    return fs.write(f"f{comm.rank}", 0, bytes(1 << 20), node=node,
                    ready_time=comm.clock)


def test_second_run_job_starts_from_reset_timelines_and_counters():
    machine = PRESETS["chiba_city"](4)
    first = run_job(machine, _dump_program, nprocs=4)
    assert any(d.busy_time > 0 for d in machine.fs.devices())
    second = run_job(machine, _dump_program, nprocs=4)
    # Queues busy from the first job would push every completion later,
    # and leftover counters would double.
    assert second.results == first.results
    assert second.counters == first.counters
    assert first.counters.writes == 4
    assert first.counters.bytes_written == 4 << 20
    # The snapshot is the job's own: later traffic does not move it.
    machine.fs.write("late", 0, b"x")
    assert first.counters.writes == 4


def test_run_job_needs_a_file_system():
    machine = PRESETS["origin2000"](2)
    machine.fs = None
    with pytest.raises(ValueError, match="no file system"):
        run_job(machine, _dump_program, nprocs=2)


# -- committed records ----------------------------------------------------------


def test_figure_command_reproduces_committed_cells(tmp_path, capsys):
    out = tmp_path / "fig10.json"
    assert main(["figure", "fig10", "--procs", "4", "--json", str(out)]) == 0
    points = {p["strategy"]: p for p in json.loads(out.read_text())}
    assert sorted(points) == ["hdf5", "hdf5-aligned", "mpi-io"]
    for strategy, point in points.items():
        committed = COMMITTED[f"fig10:{strategy}:4"]
        assert point["write_s"] == committed["write_s"]
        assert point["problem"] == committed["problem"] == "AMR32"
    assert "READ" not in capsys.readouterr().out  # fig10 is write-only


@pytest.mark.parametrize("cell_id",
                         ["fig6:mpi-io-async:4", "nyx-plotfile:mpi-io:8"])
def test_driver_cell_kind_reproduces_committed_record(cell_id):
    """One driver kind serves both the write-behind cells and the cadence
    cell; only the latter's record carries the per-stream counters."""
    record = run_cell(cell_by_id(cell_id))
    assert record == COMMITTED[cell_id]
    assert ("plot_dumps" in record) == (cell_id.startswith("nyx"))


def test_driver_write_time_counts_plot_files():
    """``run_overlap_experiment`` reduces a driver run's write time once:
    each rank's checkpoint plus plot-file time, the maximum over ranks --
    the reduction the regress cadence cell and the tuner both read."""
    from repro.bench.runners import run_overlap_experiment
    from repro.enzo.simulation import EnzoConfig
    from repro.iostack import registry
    from repro.scenarios import normalize_nyx, parse_nyx

    scenario = normalize_nyx(
        parse_nyx("amr.n_cell = 16 16 16\namr.max_step = 2\n"
                  "amr.plot_int = 1\namr.check_int = 2\n"),
        name="plot-cadence",
    )
    result = run_overlap_experiment(
        PRESETS["origin2000"](nprocs=2), registry.create("mpi-io"),
        EnzoConfig(problem=scenario), nprocs=2,
    )
    summaries = result.summaries
    assert all(s["plot_time"] > 0 for s in summaries)
    assert result.write_time == max(
        s["write_time"] + s["plot_time"] for s in summaries)
