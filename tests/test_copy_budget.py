"""Copy budget of the bulk data path: one copy per byte per hop.

"No zero-fill twin", "no regrow copy" and "no resident master" are
assertions on traced memory (``conftest.Traced``): *held* is what a step
leaves allocated, *peak* the most it ever had.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.amr import Grid, GridHierarchy, ParticleSet
from repro.bench import build_initial_workload, build_scale_workload, build_workload
from repro.enzo.meta import HierarchyMeta
from repro.hdf4 import SDFile
from repro.iostack.formats import read_grid_sd, write_grid_sd
from repro.mpi import run_spmd
from repro.mpiio import ADIOFile
from repro.pfs.blockstore import _PAGE
from repro.scenarios import registry as scenario_registry

from .conftest import Traced, make_machine

#: Python-object noise: headers, dict slots, the frames of the calls made.
SLACK = 48 * 1024


def _hierarchy(dims=(32, 32, 32), nparticles=4096):
    rng = np.random.default_rng(11)
    root = Grid.make_root(dims)
    for name in root.fields:
        root.fields[name] = rng.random(dims)
    root.particles = ParticleSet(
        np.arange(nparticles), rng.random((nparticles, 3)),
        rng.random((nparticles, 3)), rng.random(nparticles),
    )
    return GridHierarchy(root)


def test_an_array_through_write_contig_costs_its_bytes_plus_one_page():
    data = np.random.default_rng(1).random(512 * 1024 + 77)  # 4 MiB, off-page

    def program(comm):
        comm.machine.fs.create("f")
        adio = ADIOFile(comm.machine.fs, "f", comm)
        adio.write_contig(12345, b"x")  # the file and its first page exist
        with Traced() as t:
            adio.write_contig(3 * _PAGE + 5, data)
        return t

    t = run_spmd(make_machine(1), program).results[0]
    pages = data.nbytes // _PAGE + 2
    assert t.held >= data.nbytes
    assert t.peak <= data.nbytes + _PAGE + pages * 160 + SLACK


def test_hierarchy_copy_allocates_the_payload_once():
    master = _hierarchy(nparticles=0)  # fields only: a zero-filled twin of
    payload = master.total_data_nbytes()  # even one array would show
    with Traced() as t:
        twin = master.copy()
    assert twin.root.equal(master.root)
    assert payload <= t.held <= t.peak <= payload + SLACK


def test_a_shell_is_free_and_a_read_into_it_holds_the_payload_once():
    master = _hierarchy()
    grid = master.root
    meta = HierarchyMeta.from_hierarchy(master)
    array = grid.fields["density"].nbytes

    def program(comm):
        sd = SDFile.start(comm, "g", "w")
        write_grid_sd(sd, grid)
        sd.end()
        with Traced() as made:
            shell = meta.root.shell()
        with Traced() as read:
            sd = SDFile.start(comm, "g", "r")
            read_grid_sd(sd, shell)
            sd.end()
        return shell, made, read

    shell, made, read = run_spmd(make_machine(1), program).results[0]
    assert shell.equal(grid)
    assert made.peak <= SLACK  # no zeros waiting to be replaced
    assert grid.data_nbytes <= read.held <= grid.data_nbytes + SLACK
    # One array in flight: the bytes read and the array made from them.
    assert read.peak <= grid.data_nbytes + 2 * array + SLACK


_BUILDERS = {
    "dump": lambda seed: build_workload(
        replace(scenario_registry.get("AMR16"), seed=seed)),
    "initial": lambda seed: build_initial_workload(
        replace(scenario_registry.get("AMR16"), seed=seed)),
    "scale": build_scale_workload,
}


# Arguments no other test passes, so nothing earlier in the process can
# have built (or cached) this hierarchy before the trace starts.
@pytest.mark.parametrize("kind, warm, cold", [
    ("dump", 9172, 9173), ("initial", 9172, 9173), ("scale", 5, 6),
])
def test_a_dropped_workload_leaves_nothing_resident(kind, warm, cold):
    build = _BUILDERS[kind]
    build(warm)  # first-call imports and caches land outside the trace
    with Traced() as t:
        payload = build(cold).total_data_nbytes()
    assert t.peak >= payload  # the build ran inside the trace
    assert t.held <= SLACK
