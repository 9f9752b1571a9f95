"""Point-to-point messaging tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr import Grid, ParticleSet
from repro.mpi import Moved, alltoall, barrier, payload_nbytes, run_spmd, scatter
from repro.mpi.comm import _immutable, _wire_copy
from repro.sim import DeadlockError, RankFailedError

from .conftest import make_machine


def test_ring_send_recv(machine4):
    def program(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(comm.rank * 100, right, tag=7)
        return comm.recv(left, tag=7)

    res = run_spmd(machine4, program)
    assert res.results == [300, 0, 100, 200]


def test_numpy_payload_is_copied(machine4):
    def program(comm):
        if comm.rank == 0:
            arr = np.arange(10)
            comm.send(arr, 1)
            arr[:] = -1  # mutation after send must not affect the message
            return None
        if comm.rank == 1:
            got = comm.recv(0)
            return got.tolist()
        return None

    res = run_spmd(machine4, program)
    assert res.results[1] == list(range(10))


def test_message_ordering_same_pair(machine4):
    def program(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.send(i, 1, tag=3)
        elif comm.rank == 1:
            return [comm.recv(0, tag=3) for _ in range(5)]
        return None

    res = run_spmd(machine4, program)
    assert res.results[1] == [0, 1, 2, 3, 4]


def test_tag_selectivity(machine4):
    def program(comm):
        if comm.rank == 0:
            comm.send("a", 1, tag=10)
            comm.send("b", 1, tag=20)
        elif comm.rank == 1:
            second = comm.recv(0, tag=20)
            first = comm.recv(0, tag=10)
            return (first, second)
        return None

    res = run_spmd(machine4, program)
    assert res.results[1] == ("a", "b")


def test_transfer_advances_receiver_clock():
    m = make_machine(2, latency=0.5, bandwidth=100.0)

    def program(comm):
        if comm.rank == 0:
            comm.send(b"x" * 100, 1)  # 1s occupancy + 0.5 latency
        else:
            comm.recv(0)
        return comm.clock

    res = run_spmd(m, program)
    # Receiver cannot see the message before ~1.5s.
    assert res.results[1] >= 1.5


def test_recv_without_send_deadlocks(machine4):
    def program(comm):
        if comm.rank == 0:
            comm.recv(1, tag=5)
        return None

    with pytest.raises(RankFailedError) as ei:
        run_spmd(machine4, program)
    assert isinstance(ei.value.__cause__, DeadlockError)


def test_send_validation(machine4):
    def bad_dest(comm):
        comm.send(1, 99)

    with pytest.raises(RankFailedError):
        run_spmd(machine4, bad_dest)

    def bad_tag(comm):
        comm.send(1, 0, tag=-3)

    with pytest.raises(RankFailedError):
        run_spmd(machine4, bad_tag)

    def bad_source(comm):
        comm.recv(-1)

    with pytest.raises(RankFailedError) as ei:
        run_spmd(machine4, bad_source)
    assert "source -1 out of range" in str(ei.value.__cause__)


def test_a_user_tag_cannot_alias_a_collective_tag():
    """Collectives tag their messages from the top of the tag space down; a
    send with such a tag would be taken by the next barrier (and the user's
    receive would get the barrier's token), so it is refused."""
    internal = 2**20 - 2  # the first collective's tag

    def program(comm):
        if comm.rank == 0:
            comm.send("user payload", 1, tag=internal)
        barrier(comm)
        if comm.rank == 1:
            return comm.recv(0, tag=internal)
        return None

    with pytest.raises(RankFailedError) as ei:
        run_spmd(make_machine(2), program)
    assert ei.value.rank == 0
    message = str(ei.value.__cause__)
    assert f"tag {internal}" in message and "[0, 983040)" in message


def test_payload_nbytes():
    assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(bytearray(5)) == 5
    assert payload_nbytes({"k": 1}) > 0


def _grid(dims=(6, 5, 4), nparticles=7, assign=("density", "velocity_y")):
    rng = np.random.default_rng(3)
    grid = Grid.make_root(dims)
    for name in assign:
        grid.fields[name] = rng.random(dims)
    grid.particles = ParticleSet(
        np.arange(nparticles), rng.random((nparticles, 3)),
        rng.random((nparticles, 3)), rng.random(nparticles),
    )
    return grid


def _readonly(a):
    a.flags.writeable = False
    return a


def _big(*shape):
    # >= 64 KiB: the pickler streams such a buffer past its own frame buffer.
    return np.random.default_rng(5).random(shape)


_STRUCTURED = np.dtype([("id", "<i8"), ("pos", "<f8", (3,)), ("tag", "S3")])

WIRE_PAYLOADS = {
    "grid": lambda: _grid(),
    "grid-untouched-fields": lambda: _grid(assign=()),
    "grid-big": lambda: _grid(dims=(24, 24, 24), nparticles=5000),
    "particles": lambda: _grid().particles,
    "particles-empty": lambda: ParticleSet(),
    "scatter-bundle": lambda: {"top": _grid(), 4: _grid((3, 3, 3)), "none": None},
    "gather-list": lambda: [(0, _grid()), (1, _grid((2, 2, 9))), (2, None)],
    "f-order": lambda: (np.asfortranarray(_big(40, 30, 20)), "F"),
    "f-order-small": lambda: [np.asfortranarray(np.arange(12.0).reshape(3, 4))],
    "non-contiguous": lambda: {"a": _big(300, 300)[::2, 1::3], "b": np.arange(9)[::2]},
    "read-only": lambda: [_readonly(_big(100, 100)), _readonly(np.arange(5))],
    "zero-length": lambda: (np.zeros(0), np.zeros((0, 3)), np.zeros((4, 0), order="F")),
    "object-dtype": lambda: [np.array([1, "two", (3,), None], dtype=object)],
    "structured": lambda: {"s": np.zeros(5000, dtype=_STRUCTURED), "t": np.ones(3, _STRUCTURED)},
    "same-array-twice": lambda: (lambda a: [a, a, {"again": a}])(_big(9000)),
    "scalars": lambda: (7, 2.5, "s", True, None, b"raw", (1, (2, 3))),
    "int": lambda: 12345678901234567890,
    "str": lambda: "x" * 70000,
}


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj))


def _check_wire_copy(obj):
    top = pickle.HIGHEST_PROTOCOL
    nbytes, snap = _wire_copy(obj)
    blob = pickle.dumps(obj, top)
    assert nbytes == len(blob) == payload_nbytes(obj)
    reference = pickle.loads(blob)
    assert pickle.dumps(snap, top) == pickle.dumps(reference, top)
    theirs, ours = list(_arrays(reference)), list(_arrays(snap))
    assert len(theirs) == len(ours)
    for want, got in zip(theirs, ours):
        assert got.flags.writeable == want.flags.writeable
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert got.dtype == want.dtype and got.shape == want.shape
    for source in _arrays(obj):
        assert not any(np.shares_memory(source, got) for got in ours)


@pytest.mark.parametrize("kind", sorted(WIRE_PAYLOADS))
def test_wire_copy_is_the_pickle_size_and_an_unaliased_round_trip(kind):
    """The buffer-aware snapshot is indistinguishable from dumps + loads."""
    _check_wire_copy(WIRE_PAYLOADS[kind]())


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(0, 48), min_size=1, max_size=3).map(tuple),
    dtype=st.sampled_from(["<f8", "<f4", "<i8", "u1", ">i4", "?", "c16"]),
    order=st.sampled_from("CF"),
    step=st.integers(1, 3),
    writeable=st.booleans(),
)
def test_wire_copy_property_over_array_layouts(shape, dtype, order, step, writeable):
    """Any dtype/order/stride/flag mix, inside the containers messages use:
    sizes straddle the pickler's 64 KiB streaming threshold (48^3 * 8)."""
    count = int(np.prod(shape))
    array = np.arange(count).astype(dtype).reshape(shape, order=order)[::step]
    array.flags.writeable = writeable
    _check_wire_copy({"k": [array, (1, array.T)], "n": count})


def test_wire_copy_snapshot_survives_sender_mutation(machine4):
    def program(comm):
        if comm.rank == 0:
            grid = _grid(dims=(24, 24, 24))
            keep = grid.fields["density"].copy()
            comm.send([(0, grid)], 1)
            grid.fields["density"][:] = -1.0
            grid.particles.ids[:] = -1
            return keep
        if comm.rank == 1:
            ((_, got),) = comm.recv(0)
            got.fields["density"] += 0.0  # delivered arrays are writeable
            return got
        return None

    res = run_spmd(machine4, program)
    assert np.array_equal(res.results[1].fields["density"], res.results[0])
    assert res.results[1].particles.ids.tolist() == list(range(7))


def _exchange(kind, handed_over, batch, nprocs=4):
    """Every rank's payloads of ``kind`` sent point-to-point (0 -> 1), by
    alltoall and by scatter from rank 0, each wrapped in ``Moved`` or not;
    returns, per rank, what it sent, what it got and its clock."""
    wrap = Moved if handed_over else (lambda obj: obj)

    def program(comm):
        sent = [WIRE_PAYLOADS[kind]() for _ in range(comm.size)]
        p2p = None
        if comm.rank == 0:
            comm.send(wrap(sent[1]), 1)
        elif comm.rank == 1:
            p2p = comm.recv(0)
        a2a = alltoall(comm, [wrap(obj) for obj in sent])
        mine = scatter(comm, [wrap(obj) for obj in sent] if comm.rank == 0 else None)
        return sent, p2p, a2a, mine, comm.clock

    return run_spmd(make_machine(nprocs), program, batch_collectives=batch).results


@pytest.mark.parametrize("batch", [False, True], ids=["per-message", "batched"])
@pytest.mark.parametrize("kind", sorted(WIRE_PAYLOADS))
def test_a_handed_over_payload_travels_at_its_size_as_itself(kind, batch):
    obj = WIRE_PAYLOADS[kind]()
    nbytes, got = _wire_copy(Moved(obj))
    assert got is obj and nbytes == payload_nbytes(obj)
    moved = _exchange(kind, True, batch)
    snapped = _exchange(kind, False, batch)
    # Same wire sizes, so the same simulated seconds on every rank.  (A
    # scatter hop forwards what it holds: an unmarked entry's snapshot,
    # which pickles to another size when the object does not round-trip --
    # a non-contiguous array arrives contiguous.)
    top = pickle.HIGHEST_PROTOCOL
    if len(pickle.dumps(pickle.loads(pickle.dumps(obj, top)), top)) == nbytes:
        assert [r[-1] for r in moved] == [r[-1] for r in snapped]
    assert moved[1][1] is moved[0][0][1]
    for d, (_, _, a2a, mine, _) in enumerate(moved):
        assert all(a2a[s] is moved[s][0][d] for s in range(len(moved)))
        assert mine is moved[0][0][d]
    if not _immutable(obj):  # an immutable payload is shared either way
        assert snapped[1][1] is not snapped[0][0][1]
        for d, (_, _, a2a, mine, _) in enumerate(snapped):
            assert all(a2a[s] is not snapped[s][0][d] for s in range(len(snapped)) if s != d)
            assert d == 0 or mine is not snapped[0][0][d]


@pytest.mark.parametrize("batch", [False, True], ids=["per-message", "batched"])
def test_unmarked_scatter_and_alltoall_entries_arrive_as_snapshots(batch):
    def program(comm):
        grids = [_grid(dims=(24, 24, 24)) for _ in range(comm.size)]
        keep = [g.fields["density"].copy() for g in grids]
        got = alltoall(comm, grids)
        mine = scatter(comm, grids if comm.rank == 0 else None)
        for g in grids:  # the sender's later writes reach no message
            g.fields["density"][:] = -1.0
            g.particles.ids[:] = -1
        return keep, got, mine

    res = run_spmd(make_machine(4), program, batch_collectives=batch).results
    for d, (_, got, mine) in enumerate(res):
        for s in range(len(res)):
            if s != d:
                assert np.array_equal(got[s].fields["density"], res[s][0][d])
                assert got[s].particles.ids.tolist() == list(range(7))
        if d:
            assert np.array_equal(mine.fields["density"], res[0][0][d])
            assert mine.particles.ids.tolist() == list(range(7))


def test_scatter_forwarding_hops_deliver_without_a_copy():
    """At P = 8 ranks 3, 5, 6 and 7 get their entries through other ranks'
    bundles; handed-over entries arrive as the root's objects, unmarked ones
    as snapshots.  Handed over whole, every hop's wire size is the unmarked
    scatter's.  (Mixed, a forwarded bundle holds snapshots taken one entry
    at a time beside the root's objects, which share fewer objects than one
    snapshot of the root's bundle does, so its pickle is larger.)"""

    def program(comm, marks):
        sent = [_grid((3, 3, 3 + r)) for r in range(comm.size)]
        objs = [Moved(g) if mark else g for g, mark in zip(sent, marks)]
        mine = scatter(comm, objs if comm.rank == 0 else None)
        return sent, mine, comm.clock

    def run(marks):
        return run_spmd(make_machine(8), program, args=(marks,)).results

    plain = run([False] * 8)
    for marks in ([True] * 8, [r % 2 == 1 for r in range(8)]):
        res = run(marks)
        if all(marks):
            assert [r[-1] for r in res] == [r[-1] for r in plain]
        sent = res[0][0]
        for r, (_, mine, _) in enumerate(res):
            assert (mine is sent[r]) == (marks[r] or r == 0)
            assert mine.equal(sent[r])


def test_compute_charges_time(machine4):
    def program(comm):
        comm.compute(2.5)
        return comm.clock

    res = run_spmd(machine4, program)
    assert all(t >= 2.5 for t in res.results)
    assert res.elapsed >= 2.5


def test_run_spmd_subset_of_machine():
    m = make_machine(8)
    res = run_spmd(m, lambda c: c.size, nprocs=3)
    assert res.results == [3, 3, 3]
    with pytest.raises(ValueError):
        run_spmd(m, lambda c: None, nprocs=9)
    with pytest.raises(ValueError):
        run_spmd(m, lambda c: None, nprocs=0)


def test_deterministic_timing(machine8):
    def program(comm):
        # Irregular communication pattern with data-dependent sizes.
        if comm.rank % 2 == 0 and comm.rank + 1 < comm.size:
            comm.send(np.zeros(comm.rank * 50 + 1), comm.rank + 1)
        elif comm.rank % 2 == 1:
            comm.recv(comm.rank - 1)
        return comm.clock

    r1 = run_spmd(make_machine(8, latency=1e-4, bandwidth=1e6), program)
    r2 = run_spmd(make_machine(8, latency=1e-4, bandwidth=1e6), program)
    assert r1.results == r2.results
    assert r1.elapsed == r2.elapsed
