"""Weak-scaling bench: invariance, batched-path identity, and the gate.

The scale sweep (``repro scale``) runs with every fast path enabled:
batched collectives, batched per-grid requests, hoisted rank states.  These
tests pin what makes that legitimate -- the fast paths change *when* Python
work happens, never *what* gets written:

* doubling P preserves the restart round-trip bit-identically for every
  registered strategy (weak scaling: each P has its own workload);
* per-rank written-payload accounting stays exact at every P;
* a dump with batched collectives produces byte-identical files to the
  legacy per-message path;
* the vectorized particle-exchange rendezvous returns exactly what the
  legacy bucket alltoall returns, rank by rank.
"""

import time

import numpy as np
import pytest

from repro.bench.scale import ScaleCell, build_scale_states, run_scale_cell
from repro.bench.workloads import build_scale_workload
from repro.enzo import RankState, hierarchies_equivalent
from repro.enzo.sort import parallel_sort_by_id
from repro.iostack import registry
from repro.mpi import run_spmd

from .conftest import make_machine

ALL_STRATEGIES = sorted(registry.names())


def _write_program(comm, states, strategy, base):
    return strategy.write_checkpoint(comm, states[comm.rank], base)


def _read_program(comm, strategy, base):
    return strategy.read_checkpoint(comm, base)


def scale_dump(name, nprocs, *, batch=True, batch_requests=True, fs=None):
    """Write the P-sized weak-scaling workload; return (machine, results)."""
    hierarchy = build_scale_workload(nprocs)
    states = build_scale_states(hierarchy, nprocs)
    machine = make_machine(nprocs, fs=fs)
    strategy = registry.create(name)
    if batch_requests:
        strategy.batch_requests = True
    machine.fs.counters.reset()
    res = run_spmd(
        machine,
        _write_program,
        nprocs=nprocs,
        args=(states, strategy, "ckpt"),
        batch_collectives=batch,
    )
    return machine, res


@pytest.mark.parametrize("name", ALL_STRATEGIES)
@pytest.mark.parametrize("nprocs", [4, 8])
def test_roundtrip_bit_identity_under_weak_scaling(name, nprocs):
    """P -> 2P: each P's dump restarts bit-identically to its workload."""
    hierarchy = build_scale_workload(nprocs)
    machine, _ = scale_dump(name, nprocs)
    read_machine = make_machine(nprocs, fs=machine.fs)
    strategy = registry.create(name)
    res = run_spmd(
        read_machine,
        _read_program,
        nprocs=nprocs,
        args=(strategy, "ckpt"),
        batch_collectives=True,
    )
    rebuilt = RankState.collect([r[0] for r in res.results])
    assert hierarchies_equivalent(rebuilt, hierarchy)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_per_rank_byte_accounting(name):
    """Sum of per-rank payload bytes == total checkpoint payload, at every P."""
    for nprocs in (4, 8):
        hierarchy = build_scale_workload(nprocs)
        machine, res = scale_dump(name, nprocs)
        moved = sum(r.bytes_moved for r in res.results)
        assert moved == hierarchy.total_data_nbytes()
        # The file system sees the payload plus format overhead, never less.
        assert machine.fs.counters.bytes_written >= moved


def test_weak_scaling_workload_is_constant_per_rank():
    """Doubling P doubles cells and keeps exactly one subgrid per rank."""
    small, large = build_scale_workload(4), build_scale_workload(8)
    assert large.total_cells() == 2 * small.total_cells()
    assert large.total_data_nbytes() == 2 * small.total_data_nbytes()
    for nprocs, h in ((4, small), (8, large)):
        assert len(h) == nprocs + 1  # root + one level-1 subgrid per rank
        per_rank = [s.ncells for s in h.level_grids(1)]
        assert len(set(per_rank)) == 1


def _store_contents(machine):
    store = machine.fs.store
    return {p: store.open(p).read(0, store.open(p).size)
            for p in store.listdir()}


@pytest.mark.parametrize("name", ["mpi-io", "hdf4"])
def test_batched_collectives_write_identical_files(name):
    """Batched rendezvous vs legacy messages: the stores end up equal."""
    legacy_machine, _ = scale_dump(name, 8, batch=False, batch_requests=False)
    batched_machine, _ = scale_dump(name, 8, batch=True, batch_requests=False)
    legacy, batched = _store_contents(legacy_machine), _store_contents(batched_machine)
    assert sorted(legacy) == sorted(batched)
    for path in legacy:
        assert legacy[path] == batched[path], f"divergent bytes in {path}"


def test_batched_requests_write_identical_files():
    """One batched request per grid file vs one request per array."""
    plain_machine, _ = scale_dump("hdf4", 8, batch=True, batch_requests=False)
    batched_machine, _ = scale_dump("hdf4", 8, batch=True, batch_requests=True)
    assert _store_contents(plain_machine) == _store_contents(batched_machine)


def test_particle_exchange_matches_legacy_alltoall():
    """The vectorized sort rendezvous equals the P x P bucket exchange."""
    hierarchy = build_scale_workload(8)
    states = build_scale_states(hierarchy, 8)

    def program(comm, states):
        local = states[comm.rank].top_piece.particles
        return parallel_sort_by_id(comm, local)

    outs = {}
    for batch in (False, True):
        res = run_spmd(make_machine(8), program, nprocs=8,
                       args=(states,), batch_collectives=batch)
        outs[batch] = res.results
    for (ps_a, off_a, counts_a), (ps_b, off_b, counts_b) in zip(
        outs[False], outs[True]
    ):
        assert off_a == off_b and counts_a == counts_b
        np.testing.assert_array_equal(ps_a.ids, ps_b.ids)
        np.testing.assert_array_equal(ps_a.positions, ps_b.positions)
        np.testing.assert_array_equal(ps_a.velocities, ps_b.velocities)
        np.testing.assert_array_equal(ps_a.mass, ps_b.mass)
        np.testing.assert_array_equal(ps_a.attributes, ps_b.attributes)


def test_scale_cell_matches_committed_baseline():
    """One fast cell of the committed BENCH_scale.json reproduces exactly."""
    from repro.bench import GATES, run_gate
    from repro.bench.cellrunner import compare, load_baseline

    gate = GATES["scale"]
    (cell,) = gate.select(["origin2000:hdf4:16"])
    assert cell == ScaleCell("origin2000", "hdf4", 16)
    report = compare(gate, run_gate(gate, [cell]), load_baseline(gate))
    assert report.ok, [v["detail"] for v in report.violations]


@pytest.mark.slow
def test_p128_sweep_cell_within_wall_clock_budget():
    """A P=128 collective cell stays far from the interactive-use ceiling.

    Generous on purpose (shared CI hardware): the cell takes ~1 s on a
    laptop; the budget only catches order-of-magnitude regressions of the
    vectorized hot paths.
    """
    start = time.perf_counter()
    record = run_scale_cell(ScaleCell("origin2000", "mpi-io", 128))
    wall = time.perf_counter() - start
    assert record["cells"] == 128 * 8**3 * 2
    assert wall < 60.0, f"P=128 scale cell took {wall:.1f}s (budget 60s)"
