"""The import surface the closed ``perfbench/`` benchmark needs from ``src/``.

``perfbench/`` cannot change in a PR that touches ``src/`` and it is run by
the driver only after the PR is written, so a subtraction that removes a
name it imports would fail in the benchmark pipeline instead of here.
These tests resolve every ``from repro... import ...`` line of its
workload and worker modules, and every ``(module, class, attr)`` patch
target of its tracer, against the working tree.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(REPO_ROOT, "perfbench")


def _repro_imports(filename):
    with open(os.path.join(PERFBENCH, filename)) as f:
        tree = ast.parse(f.read(), filename)
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").split(".")[0] == "repro"):
            for alias in node.names:
                yield node.module, alias.name


IMPORTS = sorted({
    pair for filename in ("workloads.py", "worker.py")
    for pair in _repro_imports(filename)
})


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_the_walk_found_the_benchmarks_imports():
    assert ("repro.bench.scale", "select_scale_cells") in IMPORTS
    assert ("repro.bench.cellrunner", "evaluate_trend") in IMPORTS
    assert len(IMPORTS) > 20


@pytest.mark.parametrize("module, name", IMPORTS)
def test_perfbench_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench imports {name} from {module}")


def test_select_scale_cells_keeps_the_prefixed_grammar():
    from repro.bench.scale import ScaleCell, select_scale_cells

    assert select_scale_cells(["origin2000:mpi-io:P64"]) == [
        ScaleCell("origin2000", "mpi-io", 64)]


#: Methods ``TARGETS`` names that the library no longer has: the MPI layer
#: keeps one communicator and named receives, write-behind completes
#: through the progress engine alone, and only tests resumed a simulation.
#: The tracer's ``_patch_method`` skips a method its class does not define,
#: so a missing *method* costs nothing; a missing module-level function or
#: class would fail ``install()``.
GONE_METHODS = {
    "Comm.recv_with_status", "Comm.sendrecv", "Comm.split", "Comm.dup",
    "AioRequest.test", "AioRequest.wait", "EnzoSimulation.resume",
}


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert len(targets) > 40
    gone = set()
    for _layer, modname, clsname, names in targets:
        owner = importlib.import_module(modname)
        if clsname is not None:
            assert hasattr(owner, clsname), f"{modname}.{clsname}"
            owner = getattr(owner, clsname)
        if names == "*":
            continue
        for attr in names:
            if not hasattr(owner, attr):
                assert clsname is not None, f"{modname}.{attr}"
                gone.add(f"{clsname}.{attr}")
    assert gone == GONE_METHODS


# -- the trend contract -------------------------------------------------------


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def _figure_record_keys():
    """The keys of the ``record = {...}`` literal of ``run_figure_cell``."""
    with open(os.path.join(PERFBENCH, "workloads.py")) as f:
        tree = ast.parse(f.read())
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef)
             and node.name == "run_figure_cell"]
    (literal,) = [node.value for node in ast.walk(fn)
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Dict)
                  and [t.id for t in node.targets] == ["record"]]
    return {key.value for key in literal.keys}


def test_perfbench_trends_read_only_keys_its_records_carry():
    """``perfbench/run.py --check`` evaluates every trend whose cells all
    lie in one workload, on perfbench's own records.  Those carry a subset
    of the regress and scale records (no ``findings`` / ``high``), so such
    a trend must read only keys perfbench records for that cell kind."""
    from repro.bench.baselines import TRENDS, Cell
    from repro.bench.scale import SCALE_TRENDS, ScaleCell

    workloads = _perfbench_module("workloads")
    scale_keys = set(workloads.run_one(
        ScaleCell("origin2000", "hdf4", 16), workloads.Inputs(0)))
    keys = {Cell: _figure_record_keys(), ScaleCell: scale_keys}
    assert {"write_s", "trace_digest", "file_digest"} <= keys[Cell]
    assert "high" not in keys[Cell] and "findings" not in keys[Cell]
    checked = 0
    for workload in workloads.WORKLOADS.values():
        kinds = {spec.id: type(spec) for spec in workload.cells}
        for trend in TRENDS + SCALE_TRENDS:
            if not all(c in kinds for c in trend.cells):
                continue
            checked += 1
            metrics = {trend.metric, trend.right_metric or trend.metric}
            for cell_id in trend.cells:
                missing = metrics - keys[kinds[cell_id]]
                assert not missing, (
                    f"{trend.id} reads {sorted(missing)} on {cell_id}, "
                    f"which perfbench's {workload.name} records lack")
    assert checked, "no trend lies in a perfbench workload"
