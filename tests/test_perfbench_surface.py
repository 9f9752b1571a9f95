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


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert len(targets) > 40
    for _layer, modname, clsname, names in targets:
        owner = importlib.import_module(modname)
        if clsname is not None:
            assert hasattr(owner, clsname), f"{modname}.{clsname}"
            owner = getattr(owner, clsname)
        if names == "*":
            continue
        for attr in names:
            assert hasattr(owner, attr), f"{modname}.{clsname or ''}.{attr}"
